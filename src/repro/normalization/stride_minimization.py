"""Stride minimization (Section 2.2).

After maximal fission every loop nest is atomic.  The second normalization
criterion replaces every band, at every depth, with the legal permutation of
its loops that minimizes the ``stride(loop)`` cost function — by exhaustive
enumeration for practically-relevant depths, and by sorting groups of
iterators as an approximation for deep nests.
"""

from __future__ import annotations

from itertools import permutations
from typing import Dict, Mapping, Sequence, Tuple

from ..ir.arrays import Array
from ..ir.nodes import Loop, Program, band_starts
from ..analysis.band import BandView
from ..analysis.strides import BandStrides, band_strides

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
    number of orders priced (every permutation of an exhaustive band),
    ``current_cost`` the cost of the nest's own order.  The current order is
    always a candidate, so the result never increases the cost.  The
    statements are walked once (:func:`~repro.analysis.strides.band_strides`);
    each order is then priced as a weighted sum over that walk.  Legality is
    asked of the nest's :class:`~repro.analysis.band.BandView`, made only
    when an order would beat the best so far, so a band already in its
    minimal order asks no dependence question.
    """
    band = nest.perfectly_nested_band()
    iterators = tuple(loop.iterator for loop in band)
    strides = band_strides(nest, arrays)
    current_cost = strides.cost(iterators)
    if len(band) <= 1:
        return iterators, current_cost, 1, current_cost

    if len(band) > EXHAUSTIVE_DEPTH_LIMIT:
        candidate = _grouped_sort_order(iterators, strides)
        cost = strides.cost(candidate)
        if cost < current_cost and BandView(nest).order_is_legal(candidate):
            return candidate, cost, len(band) + 1, current_cost
        return iterators, current_cost, len(band) + 1, current_cost

    # Every order is priced, and an illegal order never changes the best:
    # so only an order that would replace it needs the dependence question,
    # asked of one view of the nest.
    best_order = iterators
    best_cost = current_cost
    view = None
    evaluated = 0
    for order in permutations(iterators):
        cost = strides.cost(order)
        evaluated += 1
        cheaper = cost < best_cost - 1e-12
        # Deterministic tie-break: lexicographically smallest order.
        if not cheaper and not (abs(cost - best_cost) <= 1e-12
                                and order < best_order):
            continue
        if view is None:
            view = BandView(nest)
        if view.order_is_legal(order):
            best_order = order
            if cheaper:
                best_cost = cost
    return best_order, best_cost, evaluated, current_cost


def minimize_strides(program: Program) -> Dict[str, float]:
    """Apply stride minimization to every band, at every depth, in place
    (:func:`~repro.ir.nodes.band_starts`).  The legality of an inner band's
    order is checked on its own nest alone: a dependence carried by an
    enclosing loop has ``<`` on that loop, so it survives any order of the
    loops inside it.

    Returns the pass's counters: ``nests_considered``, ``nests_permuted``,
    ``permutations_evaluated`` (the orders priced) and the summed stride
    ``cost_before`` and ``cost_after``, priced at the nominal extents.
    Nothing is memoized: one walk prices every order of a band, and
    legality is asked only of an order that would win.
    """
    counters: Dict[str, float] = {
        "nests_considered": 0, "nests_permuted": 0,
        "permutations_evaluated": 0, "cost_before": 0.0, "cost_after": 0.0}
    for body, index in band_starts(program.body):
        nest = body[index]
        counters["nests_considered"] += 1
        order, cost, evaluated, before = find_minimal_permutation(
            nest, program.arrays)
        counters["cost_before"] += before
        counters["permutations_evaluated"] += evaluated
        current = tuple(loop.iterator for loop in nest.perfectly_nested_band())
        if tuple(order) != current:
            # Rebuild the band in the new order; everything below it stays.
            view = BandView(nest)
            view.reorder(order)
            body[index] = view.materialise()
            counters["nests_permuted"] += 1
        counters["cost_after"] += cost
    return counters
