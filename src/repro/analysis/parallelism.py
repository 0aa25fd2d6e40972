"""Parallel-loop detection: one classification, of a loop under the
:func:`container_facts` of its program.

A loop is (DOALL-)parallel when every dependence it carries goes through a
container each iteration can keep private (:func:`privatizable`), such as
the scratch arrays of scalar expansion, which each CLOUDSC block iteration
rewrites whole.  Reductions (a read-modify-write of an element invariant in
the loop) run in parallel with atomic updates, at a cost the performance
model charges (the paper observes it on correlation/covariance, Section
4.1).

What a loop carries (:meth:`DependenceTable.carried
<repro.analysis.dependence.DependenceTable.carried>`) is read from the
statements of its body alone; what an iteration may keep private, from the
program around it too.  A :class:`~repro.analysis.band.BandView` keeps the
two apart, so classifications under two sets of container facts — the
program's, and the nest's as a program of its own — share one dependence
test, and :func:`classify_carried` decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (AbstractSet, Dict, FrozenSet, Iterable, List, Mapping,
                    Sequence, Set, Tuple)

from ..ir.nodes import (Computation, LibraryCall, Loop, Node, Program,
                        read_accesses)
from .affine import decompose_access
from .dependence import Carried, Statements


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
    carried: Carried
    #: True when the loop is parallel only after privatizing containers
    #: (OpenMP ``private`` / SIMD scalar expansion).
    requires_privatization: bool = False


def _reductions(iterator: str, children: Sequence[Statements]) -> Set[str]:
    """Containers updated as ``X[..] = X[..] op expr`` with the subscript
    invariant in ``iterator``."""
    reductions: Set[str] = set()
    for node, enclosing in (entry for child in children for entry in child):
        if isinstance(node, Computation) and node.is_reduction():
            target = decompose_access(node.target, (iterator, *enclosing), True)
            if target.affine and not target.uses_iterator(iterator):
                reductions.add(node.target.array)
    return reductions


def container_facts(program: Program) -> Dict[str, int]:
    """What a classification reads of the program around a loop: each
    container declared ``transient``, with how many times the program reads
    it."""
    names = [name for name, array in program.arrays.items() if array.transient]
    return _scan(program.body, names)[0] if names else {}


def privatizable(body: Sequence[Node],
                 facts: Mapping[str, int]) -> FrozenSet[str]:
    """The containers one iteration of a loop over ``body`` can keep
    private, given the :func:`container_facts` of its program: transient
    ones the program reads nowhere else, each of whose reads reads an
    element the iteration wrote before (see :func:`_scan`)."""
    reads, uncovered, written = _scan(body, facts)
    return frozenset(name for name in written if name not in uncovered
                     and reads[name] == facts[name])


def classify_carried(iterator: str, children: Sequence[Statements],
                     carried: Carried,
                     private: AbstractSet[str]) -> ParallelismInfo:
    """Classify a loop over ``iterator`` from the statements of its body —
    ``children`` holds, per direct child of the body, its
    :func:`~repro.analysis.affine.nest_statements` — given what it
    ``carried`` and the :func:`privatizable` containers of its body: it
    runs in parallel when every container it carries a dependence through
    is ``private``, and is a reduction when each of the others is updated
    in place at an element invariant in ``iterator``."""
    remaining = [dep for dep in carried if dep[0] not in private]
    if not remaining:
        return ParallelismInfo(iterator, True, False, carried,
                               requires_privatization=bool(carried))
    reductions = _reductions(iterator, children)
    return ParallelismInfo(iterator, False,
                           all(dep[0] in reductions for dep in remaining),
                           carried)


def _scan(body: Sequence[Node], names: Iterable[str]
          ) -> Tuple[Dict[str, int], Set[str], Set[str]]:
    """Of the containers ``names``, in the statements under ``body``: how
    many times each is read, those with a read no earlier write covers, and
    those written.  A write covers a read of the same subscripts when every
    loop around it (inside ``body``) also encloses the read with the same
    header: it then runs, in the same iteration, at the read's values of
    its iterators (subscripts and loop bounds read no container)."""
    reads = dict.fromkeys(names, 0)
    uncovered: Set[str] = set()
    writes: Dict[str, List[Tuple[tuple, tuple]]] = {}
    # Pre-order, so in program order, with the headers of the loops around.
    stack = [(node, ()) for node in reversed(body)]
    while stack:
        node, around = stack.pop()
        if isinstance(node, Loop):
            inner = (*around, (node.iterator, node.start, node.end, node.step))
            stack.extend((child, inner) for child in reversed(node.body))
            continue
        if isinstance(node, LibraryCall):
            # A routine reads its outputs too (``C += A @ B``), whole.
            accessed = [(name, None) for name in (*node.inputs, *node.outputs)]
        else:
            accessed = [(access.array, access.indices)
                        for expr in (*node.target.indices, node.value)
                        for access in read_accesses(expr)]
        for name, indices in accessed:
            if name in reads:
                reads[name] += 1
                if indices is None or not any(
                        written == indices and all(h in around for h in loops)
                        for written, loops in writes.get(name, ())):
                    uncovered.add(name)
        if isinstance(node, Computation) and node.target.array in reads:
            writes.setdefault(node.target.array, []).append(
                (node.target.indices, around))
    return reads, uncovered, set(writes)
