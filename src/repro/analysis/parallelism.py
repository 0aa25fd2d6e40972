"""Parallel-loop detection.

A loop is (DOALL-)parallel when it carries no dependence: no two distinct
iterations of the loop access the same memory location with at least one
write.  Reductions (a read-modify-write of an element that is invariant in
the loop) are detected separately because they can still be parallelized
with atomic updates or privatization — at a cost the performance model
charges for (the paper observes exactly this on correlation/covariance,
Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Set, Tuple

from ..ir.nodes import Computation, Loop, read_accesses
from .affine import decompose_access, nest_statements
from .dependence import Statements, body_dependences, is_carried


@dataclass(frozen=True)
class ParallelismInfo:
    """Parallelism classification of a single loop.

    A plain value — names, flags and direction symbols, no IR node — so a
    :class:`~repro.analysis.band.BandView` can keep it.
    """

    iterator: str
    is_parallel: bool
    is_reduction: bool
    #: ``(array, kind, directions)`` of every dependence the loop carries.
    carried: Tuple[Tuple[str, str, Tuple[str, ...]], ...]
    #: True when the loop is parallel only after privatizing per-iteration
    #: scalar temporaries (OpenMP ``private`` / SIMD scalar expansion).
    requires_privatization: bool = False


def _reduction_arrays(iterator: str, statements: Statements) -> Set[str]:
    """Containers updated as ``X[..] = X[..] op expr`` with the subscript
    invariant in ``iterator``."""
    reductions: Set[str] = set()
    for node, enclosing in statements:
        if isinstance(node, Computation) and node.is_reduction():
            target = decompose_access(node.target, (iterator, *enclosing), True)
            if target.affine and not target.uses_iterator(iterator):
                reductions.add(node.target.array)
    return reductions


def analyze_loop_parallelism(loop: Loop, arrays: Optional[dict] = None
                             ) -> ParallelismInfo:
    """Classify a single loop as parallel, reduction, or sequential.

    Dependences carried only through per-iteration scalar temporaries do not
    prevent parallel execution: compilers privatize such scalars (OpenMP
    ``private`` clauses, SIMD scalar expansion).  When ``arrays`` (the
    program's container table) is provided, scalars marked ``transient`` are
    treated as privatizable; without the table, any rank-0 access pattern
    (empty subscript list) is.

    Tile loops (created by :class:`repro.transforms.tiling.Tile`) partition
    the iteration space of their original loop, so their parallelism is that
    of the corresponding point loop; the subscripts reference the point
    iterator, which plain dependence testing over the tile iterator cannot
    see.
    """
    if loop.tile_of is not None and loop.iterator != loop.tile_of:
        for candidate in loop.iter_loops():
            if candidate is loop:
                continue
            if candidate.iterator == loop.tile_of:
                inner = analyze_loop_parallelism(candidate, arrays)
                return replace(inner, iterator=loop.iterator)
    return classify_iterations(
        loop.iterator, [nest_statements(child) for child in loop.body], arrays)


def classify_iterations(iterator: str, children: Sequence[Statements],
                        arrays: Optional[dict] = None) -> ParallelismInfo:
    """Classify a loop over ``iterator`` from the statements of its body:
    ``children`` holds, per direct child of the body, its
    :func:`~repro.analysis.affine.nest_statements` — all the classification
    reads, so a loop that was never built can be asked about."""
    carried = tuple(found[:3] for _source, _sink, found
                    in body_dependences(iterator, children)
                    if is_carried(found[2]))
    if not carried:
        return ParallelismInfo(iterator, True, False, ())

    statements = [entry for child in children for entry in child]
    privatizable = _privatizable_scalars(statements, arrays)
    remaining = [dep for dep in carried if dep[0] not in privatizable]
    if not remaining:
        return ParallelismInfo(iterator, True, False, carried,
                               requires_privatization=True)

    reduction_targets = _reduction_arrays(iterator, statements)
    non_reduction = [dep for dep in remaining if dep[0] not in reduction_targets]
    if not non_reduction and reduction_targets:
        return ParallelismInfo(iterator, False, True, carried)
    return ParallelismInfo(iterator, False, False, carried)


def _privatizable_scalars(statements: Statements,
                          arrays: Optional[dict]) -> Set[str]:
    """Temporaries that can be privatized per iteration of the loop whose
    body holds ``statements``.

    A container qualifies when, inside one iteration of the loop, it is
    written before it is read (in statement order), and it does not carry a
    value into later iterations or out of the loop:

    * scalars (empty subscripts) always qualify structurally,
    * higher-rank containers qualify only when declared ``transient`` and the
      container table ``arrays`` is available — these are the scratch arrays
      produced by scalar expansion, which each iteration of an outer parallel
      loop (e.g. the CLOUDSC block loop) fully rewrites before reading.
    """
    candidates: Set[str] = set()
    order: List[Tuple[str, bool, int]] = []
    for node, _enclosing in statements:
        if isinstance(node, Computation):
            for acc in read_accesses(node.value):
                order.append((acc.array, False, len(acc.indices)))
            order.append((node.target.array, True, len(node.target.indices)))

    seen_write: Set[str] = set()
    disqualified: Set[str] = set()
    for name, is_write, rank in order:
        declared = arrays.get(name) if arrays is not None else None
        is_transient = bool(getattr(declared, "transient", False))
        if rank == 0:
            if arrays is not None and not is_transient:
                disqualified.add(name)
                continue
        else:
            if not is_transient:
                disqualified.add(name)
                continue
        if is_write:
            seen_write.add(name)
            candidates.add(name)
        elif name not in seen_write:
            disqualified.add(name)
    return candidates - disqualified

