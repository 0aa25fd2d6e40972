"""Stride minimization (Section 2.2).

After maximal fission every loop nest is atomic.  The second normalization
criterion replaces every band, at every depth, with the legal permutation of
its loops that minimizes the ``stride(loop)`` cost function — by exhaustive
enumeration for practically-relevant depths, and by sorting groups of
iterators as an approximation for deep nests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence, Tuple

from ..ir.arrays import Array
from ..ir.nodes import Loop, Program, band_starts
from ..analysis.band import BandView
from ..analysis.dataflow import node_reads_writes
from ..analysis.dependence import legal_permutations, permutation_is_legal
from ..analysis.strides import BandStrides, band_strides

if TYPE_CHECKING:  # deferred to avoid a cycle with repro.passes.library
    from ..passes.analysis import AnalysisManager

#: Nests whose perfectly nested band is at most this deep are permuted by
#: exhaustive enumeration; deeper nests use the grouped-sort approximation.
EXHAUSTIVE_DEPTH_LIMIT = 6


def _grouped_sort_order(iterators: Sequence[str],
                        strides: BandStrides) -> Tuple[str, ...]:
    """Approximate order for deep nests: sort iterators by the stride cost
    they would incur if placed innermost (smallest innermost)."""

    def innermost_cost(iterator: str) -> float:
        order = [it for it in iterators if it != iterator] + [iterator]
        return strides.cost(order)

    ranked = sorted(iterators, key=innermost_cost, reverse=True)
    return tuple(ranked)


def find_minimal_permutation(nest: Loop, arrays: Mapping[str, Array]
                             ) -> Tuple[Tuple[str, ...], float, int, float]:
    """Find the legal loop order with minimal stride cost, priced at the
    nominal extents.

    Returns ``(order, cost, evaluated, current_cost)``: ``evaluated`` is the
    number of permutations whose cost was computed, ``current_cost`` the
    cost of the nest's own order.  The current order is always a candidate,
    so the result never increases the cost.  The statements are walked once
    (:func:`~repro.analysis.strides.band_strides`); each order is then
    priced as a weighted sum over that walk.
    """
    band = nest.perfectly_nested_band()
    iterators = tuple(loop.iterator for loop in band)
    strides = band_strides(nest, arrays)
    current_cost = strides.cost(iterators)
    if len(band) <= 1:
        return iterators, current_cost, 1, current_cost

    if len(band) > EXHAUSTIVE_DEPTH_LIMIT:
        candidate = _grouped_sort_order(iterators, strides)
        evaluated = len(band) + 1
        if permutation_is_legal(nest, candidate):
            cost = strides.cost(candidate)
            if cost < current_cost:
                return candidate, cost, evaluated, current_cost
        return iterators, current_cost, evaluated, current_cost

    best_order = iterators
    best_cost = current_cost
    evaluated = 0
    for order in legal_permutations(nest):
        cost = strides.cost(order)
        evaluated += 1
        if cost < best_cost - 1e-12:
            best_cost = cost
            best_order = order
        elif abs(cost - best_cost) <= 1e-12 and order < best_order:
            # Deterministic tie-break: lexicographically smallest order.
            best_order = order
    return best_order, best_cost, max(evaluated, 1), current_cost


def _nest_key_material(nest: Loop,
                       arrays: Mapping[str, Array]) -> Dict[str, object]:
    """Extra key material for memoized per-nest permutation results.

    Stride costs depend on the shapes/dtypes of the arrays the nest touches,
    so they join the nest content fingerprint in the memo key — and no other
    array of the program does: one nest in two programs shares its answer.
    """
    reads, writes = node_reads_writes(nest)
    return {
        "arrays": sorted((name, tuple(str(dim) for dim in arrays[name].shape),
                          str(arrays[name].dtype))
                         for name in reads | writes if name in arrays),
    }


def minimize_strides(program: Program,
                     analysis: "Optional[AnalysisManager]" = None
                     ) -> Dict[str, float]:
    """Apply stride minimization to every band, at every depth, in place
    (:func:`~repro.ir.nodes.band_starts`).  The legality of an inner band's
    order is checked on its own nest alone: a dependence carried by an
    enclosing loop has ``<`` on that loop, so it survives any order of the
    loops inside it.

    Returns the pass's counters: ``nests_considered``, ``nests_permuted``,
    ``permutations_evaluated`` and the summed stride ``cost_before`` and
    ``cost_after``, priced at the nominal extents.  With an
    :class:`~repro.passes.analysis.AnalysisManager`, the minimal permutation
    of each nest — the expensive part: legality checks and cost evaluation
    over every candidate order — is memoized by nest content, so repeated
    normalization of equivalent nests skips the search entirely.
    """
    counters: Dict[str, float] = {
        "nests_considered": 0, "nests_permuted": 0,
        "permutations_evaluated": 0, "cost_before": 0.0, "cost_after": 0.0}
    for body, index in band_starts(program.body):
        nest = body[index]
        counters["nests_considered"] += 1
        computed = []

        def compute(nest: Loop = nest) -> Tuple[Tuple[str, ...], float, int, float]:
            computed.append(True)
            return find_minimal_permutation(nest, program.arrays)

        if analysis is not None:
            order, cost, evaluated, before = analysis.cached_node(
                "minimal-permutation", nest, compute,
                extra=_nest_key_material(nest, program.arrays))
        else:
            order, cost, evaluated, before = compute()

        counters["cost_before"] += before
        # A memo hit skipped the permutation search: it must not re-count
        # the cached run's evaluations as work done by this run.
        counters["permutations_evaluated"] += evaluated if computed else 0
        current = tuple(loop.iterator for loop in nest.perfectly_nested_band())
        if tuple(order) != current:
            # Rebuild the band in the new order; everything below it stays.
            view = BandView(nest)
            view.reorder(order)
            body[index] = view.materialise()
            counters["nests_permuted"] += 1
        counters["cost_after"] += cost
    return counters
