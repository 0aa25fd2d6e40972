"""The dependence API the :class:`~repro.analysis.dependence.DependenceTable`
replaced, kept as the specification.

Each function below is the one ``repro.analysis.dependence`` (and, for the
last two, ``repro.analysis.parallelism``) exported before every dependence
question became a projection of one table: each gathers its accesses
again and tests its pairs again.  The table's projections must answer
exactly what these answer — the same tuples in the same order — so the
tests compare them with ``==``.  The pair test itself is the library's,
looked up on the module at call time so a test that wraps
``dependence._test_access_pair`` sees every pair the spec visits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations as iter_permutations
from typing import AbstractSet, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis import dependence
from repro.analysis.affine import (AffineAccess, computation_accesses,
                                   nest_statements)
from repro.analysis.dependence import (EQ, Statements, _classify,
                                       _expand_directions,
                                       _lexicographically_non_negative,
                                       is_carried)
from repro.analysis.parallelism import (Carried, ParallelismInfo,
                                        classify_carried)
from repro.ir.nodes import Computation, LibraryCall, Loop, Node


@dataclass(frozen=True)
class Dependence:
    """A data dependence between two nodes under a common loop nest.

    Attributes:
        source / sink: The earlier and later node in program order.
        array: Container on which the dependence exists.
        kind: ``"flow"`` (write then read), ``"anti"`` (read then write) or
            ``"output"`` (write then write).
        directions: One direction symbol per common loop, outermost first.
        distance: Per-level integer distances when statically known, else None
            entries aligned with ``directions``.
    """

    source: Node
    sink: Node
    array: str
    kind: str
    directions: Tuple[str, ...]
    distance: Tuple[Optional[int], ...]

    @property
    def loop_independent(self) -> bool:
        """True when the dependence occurs within a single iteration."""
        return not is_carried(self.directions)


def _gather_accesses(statements: Statements, common_iterators: Sequence[str]
                     ) -> List[Tuple[AffineAccess, frozenset]]:
    """Collect all accesses of a subtree's statements with their full
    iterator context.

    Returns pairs ``(access, private_iterators)``: the access decomposed
    over the common iterators plus its ``private_iterators``, the iterators
    of loops inside the subtree (not part of the common surrounding nest).
    """
    collected: List[Tuple[AffineAccess, frozenset]] = []
    for statement, enclosing in statements:
        private = frozenset(enclosing)
        if isinstance(statement, Computation):
            known = (*common_iterators, *enclosing)
            collected.extend((acc, private)
                             for acc in computation_accesses(statement, known))
        elif isinstance(statement, LibraryCall):
            # Library calls touch whole containers; model as rank-0 accesses
            # which force a conservative dependence on any overlap.
            collected.extend((AffineAccess(name, (), False), private)
                             for name in statement.inputs)
            collected.extend((AffineAccess(name, (), True), private)
                             for name in statement.outputs)
    return collected


def _pair_tests(accesses_a: List[Tuple[AffineAccess, frozenset]],
                accesses_b: List[Tuple[AffineAccess, frozenset]],
                common_iterators: Sequence[str]):
    """``(access a, access b, (directions, distance))`` of every pair of an
    earlier and a later access to one container, at least one a write, that
    may depend — tested lazily, in ``product(accesses_a, accesses_b)``
    order, so a caller can stop at the first."""
    # Only accesses to one container can depend on each other.
    sinks: Dict[str, List[Tuple[AffineAccess, frozenset]]] = {}
    for entry in accesses_b:
        sinks.setdefault(entry[0].array, []).append(entry)
    for acc_a, private_a in accesses_a:
        for acc_b, private_b in sinks.get(acc_a.array, ()):
            if not (acc_a.is_write or acc_b.is_write):
                continue
            result = dependence._test_access_pair(acc_a, private_a, acc_b,
                                                  private_b, common_iterators)
            if result is not None:
                yield acc_a, acc_b, result


def _access_dependences(accesses_a: List[Tuple[AffineAccess, frozenset]],
                        accesses_b: List[Tuple[AffineAccess, frozenset]],
                        common_iterators: Sequence[str]
                        ) -> List[Tuple[str, str, Tuple[str, ...],
                                        Tuple[Optional[int], ...]]]:
    """``(array, kind, directions, distance)`` of every distinct dependence
    from the gathered accesses of an earlier subtree to those of a later."""
    found = []
    seen: Set[Tuple] = set()
    for acc_a, acc_b, (directions, distances) in _pair_tests(
            accesses_a, accesses_b, common_iterators):
        kind = _classify(acc_a.is_write, acc_b.is_write)
        key = (acc_a.array, kind, directions)
        if key in seen:
            continue
        seen.add(key)
        found.append((acc_a.array, kind, directions, distances))
    return found


def dependences_between(node_a: Node, node_b: Node,
                        common_iterators: Sequence[str]) -> List[Dependence]:
    """All dependences from ``node_a`` (earlier) to ``node_b`` (later).

    ``common_iterators`` are the iterators of the loops enclosing *both*
    nodes, outermost first.  Dependences are reported with direction vectors
    over exactly those loops.
    """
    accesses_a = _gather_accesses(nest_statements(node_a), common_iterators)
    accesses_b = (accesses_a if node_b is node_a else
                  _gather_accesses(nest_statements(node_b), common_iterators))
    return [Dependence(node_a, node_b, *found) for found in
            _access_dependences(accesses_a, accesses_b, common_iterators)]


def carried_between(first: Sequence[Node], second: Sequence[Node],
                    common_iterators: Sequence[str]) -> bool:
    """Whether a dependence between two bodies under the same
    ``common_iterators``, either way round, links two different iterations
    of those loops — the one reason the bodies cannot share them (fusion).
    Each body's accesses are gathered once."""
    accesses_a, accesses_b = (
        _gather_accesses([entry for node in body for entry in nest_statements(node)],
                         common_iterators)
        for body in (first, second))
    return any(is_carried(found[2])
               for source, sink in ((accesses_a, accesses_b), (accesses_b, accesses_a))
               for found in _access_dependences(source, sink, common_iterators))


def self_dependences(node: Node, common_iterators: Sequence[str]) -> List[Dependence]:
    """Dependences of a node on itself across iterations of the common loops."""
    deps = dependences_between(node, node, common_iterators)
    # A same-iteration self dependence (all "=") is not a real dependence
    # unless it is a reduction (write and read of the same element), in which
    # case it is still loop-independent and does not constrain permutation.
    return [dep for dep in deps if not dep.loop_independent]


def body_dependences(iterator: str, children: Sequence[Statements]
                     ) -> List[Tuple[int, int, Tuple]]:
    """Every dependence between the direct children of a loop over
    ``iterator``, read from the statements of its body alone: ``(source
    child, sink child, (array, kind, directions, distance))``.  ``children``
    holds, per child, its :func:`~repro.analysis.affine.nest_statements`,
    so a loop that was never built can be asked about.

    A child's dependences on itself are reported only when the loop carries
    them, a child's on a later child all, and a later child's on an earlier
    one (backward) only when carried — in program order of the pairs, each
    forward pair before its backward twin.  Parallelism reads the ones
    :func:`is_carried`; fission only whether a pair of different children
    has one (:func:`child_edges`).  Each child's accesses are gathered once.
    """
    common = [iterator]
    gathered = [_gather_accesses(child, common) for child in children]
    found = []
    for i in range(len(gathered)):
        for j in range(i, len(gathered)):
            for source, sink in ((i, j), (j, i))[:1 + (i != j)]:
                for dependence in _access_dependences(gathered[source],
                                                      gathered[sink], common):
                    if source < sink or is_carried(dependence[2]):
                        found.append((source, sink, dependence))
    return found


def child_edges(iterator: str, children: Sequence[Statements]
                ) -> List[Tuple[int, int]]:
    """The ``(source child, sink child)`` pairs of two different children
    among which :func:`body_dependences` reports a dependence: a pair is
    tested only until its first one — any for a later child's on an
    earlier, a carried one the other way round."""
    common = [iterator]
    gathered = [_gather_accesses(child, common) for child in children]
    edges = []
    for i in range(len(gathered)):
        for j in range(i + 1, len(gathered)):
            if next(_pair_tests(gathered[i], gathered[j], common), None):
                edges.append((i, j))
            if any(is_carried(directions) for _a, _b, (directions, _distance)
                   in _pair_tests(gathered[j], gathered[i], common)):
                edges.append((j, i))
    return edges


def nest_dependences(loop: Loop) -> List[Dependence]:
    """All dependences among computations of a loop nest, over its own loops.

    Every pair of computations (including a computation with itself) is tested
    over the iterators of the loops that enclose *both* computations within
    ``loop``.  Used for permutation legality.
    """
    return statement_dependences(nest_statements(loop))


def statement_dependences(statements: Statements) -> List[Dependence]:
    """:func:`nest_dependences` of a nest given as its
    :func:`~repro.analysis.affine.nest_statements`."""
    comps_with_context = [(node, iterators) for node, iterators in statements
                          if isinstance(node, Computation)]

    deps: List[Dependence] = []
    for i, (comp_a, iters_a) in enumerate(comps_with_context):
        for j, (comp_b, iters_b) in enumerate(comps_with_context):
            if j < i:
                continue
            common: List[str] = []
            for it_a, it_b in zip(iters_a, iters_b):
                if it_a == it_b:
                    common.append(it_a)
                else:
                    break
            if comp_a is comp_b:
                deps.extend(self_dependences(comp_a, common))
            else:
                deps.extend(dependences_between(comp_a, comp_b, common))
                deps.extend(dep for dep in dependences_between(comp_b, comp_a, common)
                            if not dep.loop_independent)
    return deps


def band_bounds_respect_order(band: Sequence[Loop],
                              order: Sequence[str]) -> bool:
    """Structural legality of a band reordering (``band`` holds loops, or
    the frames a :class:`~repro.analysis.band.BandView` stands for them
    with): a loop's bounds may only
    reference iterators that remain *outside* it.  Triangular and other
    non-rectangular domains constrain which permutations are expressible at
    all — moving ``j`` with bound ``N - i`` above ``i`` leaves ``i`` unbound
    in ``j``'s header regardless of dependences.
    """
    position = {iterator: idx for idx, iterator in enumerate(order)}
    band_iterators = set(position)
    for lp in band:
        referenced = lp.bound_symbols() & band_iterators
        if any(position[other] >= position[lp.iterator]
               for other in referenced):
            return False
    return True


def direction_vectors(statements: Statements) -> Tuple[Tuple[str, ...], ...]:
    """The distinct direction vectors of :func:`statement_dependences` —
    plain tuples of direction symbols; no :class:`Dependence` and no IR node
    is retained."""
    return tuple(dict.fromkeys(
        dep.directions for dep in statement_dependences(statements)))


def nest_direction_vectors(loop: Loop) -> Tuple[Tuple[str, ...], ...]:
    """The :func:`direction_vectors` of a nest: all permutation legality
    reads of a dependence."""
    return direction_vectors(nest_statements(loop))


def band_order_is_legal(band: Sequence[Loop],
                        vectors: Iterable[Tuple[str, ...]],
                        order: Sequence[str]) -> bool:
    """Whether reordering ``band`` to ``order`` is legal, given the nest's
    :func:`nest_direction_vectors`.

    Two conditions are enforced.  Structurally, every loop bound must keep
    referencing only iterators outside it
    (:func:`band_bounds_respect_order`).  Semantically, the classical
    interchange condition is applied: every dependence direction vector that
    can occur in the original execution order (i.e. is lexicographically
    non-negative) must remain lexicographically non-negative after
    reordering.  Unknown ("*") entries are expanded into all concrete
    directions before the check, but only vectors that are possible in the
    original order are considered — a backward vector cannot flow from an
    earlier to a later instance.
    """
    original = [lp.iterator for lp in band]
    if sorted(original) != sorted(order):
        raise ValueError(
            f"permutation {list(order)} is not a reordering of {original}")
    if not band_bounds_respect_order(band, order):
        return False

    index_of = {iterator: idx for idx, iterator in enumerate(original)}
    for vector in vectors:
        # Direction vectors are reported over the loops common to both
        # endpoints; pad with "=" for the inner band loops not included.
        directions = list(vector) + [EQ] * (len(original) - len(vector))
        for concrete in _expand_directions(directions):
            if not _lexicographically_non_negative(concrete):
                # This vector cannot occur in the original program order.
                continue
            permuted = []
            for iterator in order:
                idx = index_of[iterator]
                permuted.append(concrete[idx] if idx < len(concrete) else EQ)
            if not _lexicographically_non_negative(permuted):
                return False
    return True


def permutation_is_legal(loop: Loop, permutation: Sequence[str]) -> bool:
    """Check whether reordering the nest's loops to ``permutation`` is legal.

    ``permutation`` lists the iterators of the perfectly nested band of
    ``loop`` in their new order, outermost first; see
    :func:`band_order_is_legal` for the conditions.  Callers that ask about
    several orders of one nest derive :func:`nest_direction_vectors` once
    and call :func:`band_order_is_legal` per order.
    """
    return band_order_is_legal(loop.perfectly_nested_band(),
                               nest_direction_vectors(loop),
                               permutation)


def legal_permutations(loop: Loop) -> List[Tuple[str, ...]]:
    """Enumerate legal permutations of the nest's perfectly nested band."""
    band = loop.perfectly_nested_band()
    vectors = nest_direction_vectors(loop)
    return [perm for perm in iter_permutations([lp.iterator for lp in band])
            if band_order_is_legal(band, vectors, perm)]


def carried_dependences(iterator: str,
                        children: Sequence[Statements]) -> Carried:
    """``(array, kind, directions)`` of every dependence a loop over
    ``iterator`` carries, read from ``children`` — per direct child of its
    body, its :func:`~repro.analysis.affine.nest_statements` — alone."""
    return tuple(found[:3] for _source, _sink, found
                 in body_dependences(iterator, children)
                 if is_carried(found[2]))


def classify_iterations(iterator: str, children: Sequence[Statements],
                        private: AbstractSet[str]) -> ParallelismInfo:
    """Classify a loop over ``iterator`` from the statements of its body:
    ``children`` holds, per direct child of the body, its
    :func:`~repro.analysis.affine.nest_statements` — all the classification
    reads of the loop, so a loop that was never built can be asked about —
    and ``private`` the :func:`privatizable` containers of its body."""
    return classify_carried(iterator, children,
                            carried_dependences(iterator, children), private)
