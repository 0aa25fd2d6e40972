"""Dataflow (producer/consumer) analysis between top-level loop nests.

After maximal loop fission a program is a *sequence* of atomic loop nests.
The dataflow graph over that sequence — which nest produces data consumed by
which later nest — drives the producer-consumer fusion used in the CLOUDSC
case study (Section 5.1) and the SDFG-style reasoning of Section 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set, Tuple

from ..ir.nodes import Computation, LibraryCall, Loop, Node, Program

if TYPE_CHECKING:  # networkx loads with the first graph, not with repro.api
    import networkx as nx


@dataclass(frozen=True)
class DataflowEdge:
    """An edge of the dataflow graph: producer index -> consumer index."""

    producer: int
    consumer: int
    arrays: FrozenSet[str]
    kind: str  # "flow", "anti" or "output"


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


def build_dataflow_graph(nodes: List[Node]) -> nx.DiGraph:
    """Build the dataflow graph over an ordered sequence of nodes.

    Graph nodes are the indices of ``nodes``; edges carry ``arrays`` (the
    containers that induce the edge) and ``kind``.
    """
    import networkx as nx

    graph = nx.DiGraph()
    summaries = [node_reads_writes(node) for node in nodes]
    for index, node in enumerate(nodes):
        reads, writes = summaries[index]
        graph.add_node(index, node=node, reads=frozenset(reads), writes=frozenset(writes))

    for i in range(len(nodes)):
        reads_i, writes_i = summaries[i]
        for j in range(i + 1, len(nodes)):
            reads_j, writes_j = summaries[j]
            flow = writes_i & reads_j
            anti = reads_i & writes_j
            output = writes_i & writes_j
            if flow:
                _add_edge(graph, i, j, flow, "flow")
            if anti:
                _add_edge(graph, i, j, anti, "anti")
            if output:
                _add_edge(graph, i, j, output, "output")
    return graph


def _add_edge(graph: nx.DiGraph, src: int, dst: int, arrays: Set[str], kind: str) -> None:
    if graph.has_edge(src, dst):
        data = graph[src][dst]
        data["arrays"] = frozenset(data["arrays"] | arrays)
        data["kinds"] = frozenset(data["kinds"] | {kind})
    else:
        graph.add_edge(src, dst, arrays=frozenset(arrays), kinds=frozenset({kind}))


def program_dataflow(program: Program) -> nx.DiGraph:
    """Dataflow graph over the program's top-level nodes."""
    return build_dataflow_graph(list(program.body))


def producer_consumer_pairs(program: Program) -> List[Tuple[int, int, FrozenSet[str]]]:
    """One-to-one producer/consumer pairs among top-level nodes.

    A pair ``(p, c)`` qualifies when node ``p`` is the *only* producer of the
    containers that node ``c`` reads from ``p``, and ``c`` is the *only*
    consumer of those containers — the fusion precondition used for CLOUDSC
    (Figure 10b: "fused by one-to-one produce-consumer loop nest relations").
    """
    graph = program_dataflow(program)
    pairs: List[Tuple[int, int, FrozenSet[str]]] = []
    for producer, consumer, data in graph.edges(data=True):
        if "flow" not in data["kinds"]:
            continue
        arrays = data["arrays"]
        exclusive = True
        for array in arrays:
            producers = [n for n in graph.nodes
                         if array in graph.nodes[n]["writes"] and n != producer]
            consumers = [n for n in graph.nodes
                         if array in graph.nodes[n]["reads"] and n != consumer]
            if producers or consumers:
                exclusive = False
                break
        if exclusive:
            pairs.append((producer, consumer, arrays))
    return pairs


def transient_candidates(program: Program) -> Set[str]:
    """Containers only ever used as intermediate storage between nests.

    These are candidates for demotion to small local buffers after fusion
    (the ``ZQP_0`` / ``ZCOND_0`` arrays of Figure 10b).
    """
    graph = program_dataflow(program)
    written: Dict[str, List[int]] = {}
    read: Dict[str, List[int]] = {}
    for index in graph.nodes:
        for array in graph.nodes[index]["writes"]:
            written.setdefault(array, []).append(index)
        for array in graph.nodes[index]["reads"]:
            read.setdefault(array, []).append(index)
    candidates: Set[str] = set()
    for name, arr in program.arrays.items():
        if arr.transient:
            candidates.add(name)
            continue
        writers = written.get(name, [])
        readers = read.get(name, [])
        if len(writers) == 1 and readers and all(r > writers[0] for r in readers):
            # Written once, read only afterwards: behaves like a temporary if
            # the caller does not observe it (callers decide that).
            continue
    return candidates


def topological_order(graph: nx.DiGraph) -> List[int]:
    """A topological order of the dataflow graph (program order ties kept)."""
    import networkx as nx

    return list(nx.lexicographical_topological_sort(graph))
