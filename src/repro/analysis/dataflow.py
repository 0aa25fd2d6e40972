"""Dataflow between the nodes of one body: what each reads and writes.

After maximal loop fission a program — or the body of an outer loop — is a
*sequence* of atomic loop nests.  Which node produces data that a later node
consumes drives the producer-consumer fusion of the CLOUDSC case study
(Section 5.1) and the ``dace`` baseline's map fusion.  The summary is plain
sets and a dict keyed by node indices; no graph object is built.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from ..ir.nodes import Computation, LibraryCall, Loop, Node

#: ``{(producer, consumer): (kinds, arrays)}`` — ``kinds`` among ``"flow"``,
#: ``"anti"`` and ``"output"``, ``arrays`` the containers of all of them.
Edges = Dict[Tuple[int, int], Tuple[FrozenSet[str], FrozenSet[str]]]


def node_reads_writes(node: Node) -> Tuple[Set[str], Set[str]]:
    """Containers read and written (possibly partially) by a subtree."""
    reads: Set[str] = set()
    writes: Set[str] = set()

    def recurse(current: Node) -> None:
        if isinstance(current, Loop):
            for child in current.body:
                recurse(child)
        elif isinstance(current, Computation):
            for acc in current.reads():
                reads.add(acc.array)
            writes.add(current.target.array)
        elif isinstance(current, LibraryCall):
            reads.update(current.inputs)
            writes.update(current.outputs)

    recurse(node)
    return reads, writes


def body_dataflow(nodes: Sequence[Node]
                  ) -> Tuple[List[Tuple[Set[str], Set[str]]], Edges]:
    """Per-node :func:`node_reads_writes` of a body, and its :data:`Edges`:
    one per pair of an earlier and a later node that share a container one
    of them writes."""
    summaries = [node_reads_writes(node) for node in nodes]
    edges: Edges = {}
    for i, (reads_i, writes_i) in enumerate(summaries):
        for j in range(i + 1, len(summaries)):
            reads_j, writes_j = summaries[j]
            by_kind = {"flow": writes_i & reads_j, "anti": reads_i & writes_j,
                       "output": writes_i & writes_j}
            kinds = frozenset(kind for kind, arrays in by_kind.items() if arrays)
            if kinds:
                edges[(i, j)] = (kinds, frozenset().union(*by_kind.values()))
    return summaries, edges


def adjacent_flows(nodes: Sequence[Node]
                   ) -> List[Tuple[int, FrozenSet[int], FrozenSet[int]]]:
    """Each flow edge between neighbours ``producer`` and ``producer + 1``
    of a body, in program order, with who else touches the containers of the
    edge: ``(producer, writers, readers)``, where ``writers`` are the nodes
    other than the producer that write one of them and ``readers`` the nodes
    other than the consumer that read one.  Fusion rules differ only in
    which of those they allow."""
    summaries, edges = body_dataflow(nodes)
    flows = []
    for (producer, consumer), (kinds, arrays) in edges.items():
        if consumer != producer + 1 or "flow" not in kinds:
            continue
        writers = frozenset(index for index, (_reads, writes) in enumerate(summaries)
                            if index != producer and not arrays.isdisjoint(writes))
        readers = frozenset(index for index, (reads, _writes) in enumerate(summaries)
                            if index != consumer and not arrays.isdisjoint(reads))
        flows.append((producer, writers, readers))
    return flows
