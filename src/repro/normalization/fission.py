"""Maximal loop fission (Section 2.1).

The first normalization criterion splits every loop body into as many
separate loop nests as data dependences allow.  The result is a sequence of
*atomic* loop nests whose bodies cannot be separated further.

Legality follows classical loop distribution: the children of a loop body
are partitioned into the strongly connected components (SCCs) of their
dependence graph (including loop-carried dependences in both directions);
each SCC becomes its own loop, and the loops are emitted in a topological
order of the SCC condensation.  Statements in different SCCs have no
dependence cycle, so executing one group's loop to completion before the
next preserves all dependences.

One bottom-up sweep is maximal.  A loop's children are split before the
loop itself, and the statements of one SCC stay strongly connected in the
loop of their own, because the dependence table's
:meth:`~repro.analysis.dependence.DependenceTable.edges` tests the edges
pairwise.  So no loop the sweep builds can be split again.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..ir.nodes import Loop, Program, loop_sites
from ..analysis.affine import nest_statements
from ..analysis.dependence import DependenceTable


def _dependence_edges(loop: Loop) -> List[Tuple[int, int]]:
    """Child-index dependence edges of ``loop``'s body: fission legality
    reads only whether a pair of children has a dependence."""
    return DependenceTable().edges(
        loop.iterator, [nest_statements(child) for child in loop.body])


def scc_groups(count: int, edges: Sequence[Tuple[int, int]]) -> List[List[int]]:
    """The strongly connected components of the digraph ``edges`` over
    ``range(count)``, each as its sorted members, in the topological order
    of the condensation that always emits the ready component holding the
    smallest member — program order wherever the dependences allow it.
    Loop bodies are small: reachability is one bit set per vertex.
    """
    reach = [1 << vertex for vertex in range(count)]
    # Sinks first, so forward (program-order) edges close in one sweep.
    edges = sorted(edges, reverse=True)
    grew = True
    while grew:
        grew = False
        for source, sink in edges:
            if reach[source] | reach[sink] != reach[source]:
                reach[source] |= reach[sink]
                grew = True
    groups: Dict[int, List[int]] = {}  # smallest member -> members
    for vertex in range(count):
        first = next(other for other in range(count)
                     if reach[vertex] >> other & 1 and reach[other] >> vertex & 1)
        groups.setdefault(first, []).append(vertex)
    blockers = {group: sum(reach[other] >> group & 1 for other in groups) - 1
                for group in groups}
    ordered: List[List[int]] = []
    while blockers:
        ready = min(group for group, ahead in blockers.items() if not ahead)
        del blockers[ready]
        ordered.append(groups[ready])
        for group in blockers:
            blockers[group] -= reach[ready] >> group & 1
    return ordered


def fission_loop(loop: Loop) -> Tuple[List[Loop], bool]:
    """Split one loop into one loop per dependence-SCC of its body.

    Returns ``(loops, changed)``.  When no split is possible the original
    loop is returned unchanged.
    """
    if len(loop.body) < 2:
        return [loop], False

    # Ties in the topological order keep program order, so the split is
    # deterministic and order-preserving where the dependences allow it.
    groups = scc_groups(len(loop.body), _dependence_edges(loop))
    if len(groups) <= 1:
        return [loop], False

    new_loops: List[Loop] = []
    for group in groups:
        new_loops.append(loop.with_body([loop.body[index] for index in group]))
    return new_loops, True


def maximal_loop_fission(program: Program) -> int:
    """Apply maximal loop fission to a program, in place: one bottom-up
    sweep (:func:`~repro.ir.nodes.loop_sites`) that splices each loop's
    split in its place.  Returns the number of loops split."""
    split = 0
    for _owner, body, index in loop_sites(program.body):
        loops, changed = fission_loop(body[index])
        if changed:
            body[index:index + 1] = loops
            split += 1
    return split


def is_maximally_fissioned(program: Program) -> bool:
    """True if no loop in the program can be split further."""
    for loop in program.iter_loops():
        _, changed = fission_loop(loop.copy())
        if changed:
            return False
    return True
