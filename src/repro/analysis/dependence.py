"""Data-dependence analysis over the symbolic loop-nest IR.

The normalization passes rely on two legality questions:

* **Fission / distribution** (Section 2.1): which computations within a loop
  body can be separated into their own loop nests?
* **Permutation** (Section 2.2): which loop orders of a nest preserve the
  original semantics?

Both are answered through classical data-dependence analysis on affine
subscripts: ZIV and strong-SIV tests with a GCD fallback produce dependence
*direction vectors*; anything that cannot be analyzed is treated
conservatively as a dependence with unknown direction.  Every question is a
projection of one :class:`DependenceTable`, which tests each pair of
accesses once: what a loop carries (parallelism), which children of a loop
body depend on each other (fission), the direction vectors of a nest
(permutation) and whether two bodies carry a dependence either way
(fusion).
"""

from __future__ import annotations

from itertools import permutations as iter_permutations, product, takewhile
from math import gcd
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..ir.nodes import Computation, LibraryCall, Loop, Node
from .affine import (AffineAccess, AffineIndex, computation_accesses,
                     nest_statements)

#: Direction symbols: "<" (carried forward), "=" (same iteration),
#: ">" (carried backward), "*" (unknown).
LT, EQ, GT, ANY = "<", "=", ">", "*"

_DIRECTION_ORDER = (LT, EQ, GT)

#: What :func:`~repro.analysis.affine.nest_statements` returns: the
#: statements of a subtree with the iterators enclosing each inside it.
Statements = Sequence[Tuple[Node, Tuple[str, ...]]]

#: ``(array, kind, directions)`` of every dependence a loop carries.
Carried = Tuple[Tuple[str, str, Tuple[str, ...]], ...]

#: The accesses of some statements, each with its private iterators: those
#: of the loops around it that are not common to both sides of a pair.
Gathered = List[Tuple[AffineAccess, frozenset]]

#: A pair test's answer: ``(directions, distance)`` over the common
#: iterators, or ``None`` when the pair is independent.
Answer = Optional[Tuple[Tuple[str, ...], Tuple[Optional[int], ...]]]

_UNTESTED = object()


class DependenceTable:
    """Every dependence question about a set of statements, answered from
    one test per pair of accesses.

    A statement's accesses are gathered once per set of known iterators, and
    a pair's answer is kept under ``(access a, private a, access b, private
    b, common iterators)`` — all the pair test reads — so a question asked
    again, or another question over the same pair, is a lookup.  Each
    projection visits the pairs in the order the pair test always did, so
    what it answers (tuple order included) does not depend on what the
    table was asked before.  A table lives as long as its asker: a band
    view and its forks share one, a fission or a fusion call makes its own.
    """

    def __init__(self) -> None:
        self._accesses: Dict[Tuple[Node, Tuple[str, ...]],
                             List[AffineAccess]] = {}
        self._answers: Dict[Tuple, Answer] = {}

    def _gather(self, statements: Statements,
                common: Tuple[str, ...]) -> Gathered:
        """The accesses of ``statements``, each decomposed over ``common``
        and the iterators enclosing its statement, which are private."""
        gathered: Gathered = []
        for statement, enclosing in statements:
            known = common + tuple(enclosing)
            accesses = self._accesses.get((statement, known))
            if accesses is None:
                accesses = self._accesses[(statement, known)] = \
                    _statement_accesses(statement, known)
            private = frozenset(enclosing)
            gathered.extend((access, private) for access in accesses)
        return gathered

    def _pairs(self, sources: Gathered, sinks: Gathered,
               common: Tuple[str, ...]
               ) -> Iterator[Tuple[AffineAccess, AffineAccess, Tuple[str, ...]]]:
        """``(source, sink, directions)`` of every pair of an earlier and a
        later access to one container, at least one a write, that may
        depend — lazily, in ``product(sources, sinks)`` order, so a
        projection can stop at the first."""
        # Only accesses to one container can depend on each other.
        by_array: Dict[str, Gathered] = {}
        for entry in sinks:
            by_array.setdefault(entry[0].array, []).append(entry)
        answers = self._answers
        for source, private_source in sources:
            for sink, private_sink in by_array.get(source.array, ()):
                if not (source.is_write or sink.is_write):
                    continue
                key = (source, private_source, sink, private_sink, common)
                answer = answers.get(key, _UNTESTED)
                if answer is _UNTESTED:
                    answer = answers[key] = _test_access_pair(
                        source, private_source, sink, private_sink, common)
                if answer is not None:
                    yield source, sink, answer[0]

    # -- projections -------------------------------------------------------------

    def carried(self, iterator: str, children: Sequence[Statements]) -> Carried:
        """``(array, kind, directions)`` of every dependence a loop over
        ``iterator`` carries, read from ``children`` — per direct child of
        its body, its :func:`~repro.analysis.affine.nest_statements` —
        alone, so a loop that was never built can be asked about.  Pairs of
        children come in program order, a child with itself first, each
        forward pair before its backward twin; each distinct dependence of
        a pair once."""
        common = (iterator,)
        gathered = [self._gather(child, common) for child in children]
        carried = []
        for i in range(len(gathered)):
            for j in range(i, len(gathered)):
                for source, sink in ((i, j), (j, i))[:1 + (i != j)]:
                    seen = set()
                    for a, b, directions in self._pairs(
                            gathered[source], gathered[sink], common):
                        found = (a.array, _classify(a.is_write, b.is_write),
                                 directions)
                        if found not in seen and is_carried(directions):
                            seen.add(found)
                            carried.append(found)
        return tuple(carried)

    def edges(self, iterator: str, children: Sequence[Statements]
              ) -> List[Tuple[int, int]]:
        """The ``(source child, sink child)`` pairs of two different
        children of a loop over ``iterator`` with a dependence — any from
        an earlier child to a later, a carried one the other way round —
        tested only until the first (fission)."""
        common = (iterator,)
        gathered = [self._gather(child, common) for child in children]
        edges = []
        for i in range(len(gathered)):
            for j in range(i + 1, len(gathered)):
                if next(self._pairs(gathered[i], gathered[j], common), None):
                    edges.append((i, j))
                if any(is_carried(directions) for _a, _b, directions
                       in self._pairs(gathered[j], gathered[i], common)):
                    edges.append((j, i))
        return edges

    def vectors(self, statements: Statements) -> Tuple[Tuple[str, ...], ...]:
        """The distinct direction vectors of a nest given as its
        :func:`~repro.analysis.affine.nest_statements`, in order of first
        occurrence: every computation with itself and with each later one,
        over the loops enclosing both — a computation's on itself and a
        later one's on an earlier only when carried (permutation)."""
        return tuple(dict.fromkeys(self._nest_directions(statements)))

    def _nest_directions(self, statements: Statements
                         ) -> Iterator[Tuple[str, ...]]:
        computations = [(node, enclosing) for node, enclosing in statements
                        if isinstance(node, Computation)]
        for i, (first, around_first) in enumerate(computations):
            for second, around_second in computations[i:]:
                common = tuple(a for a, _b in takewhile(
                    lambda pair: pair[0] == pair[1],
                    zip(around_first, around_second)))
                sources = self._gather(((first, ()),), common)
                if second is first:
                    yield from (d for _a, _b, d in self._pairs(
                        sources, sources, common) if is_carried(d))
                    continue
                sinks = self._gather(((second, ()),), common)
                yield from (d for _a, _b, d in self._pairs(
                    sources, sinks, common))
                yield from (d for _a, _b, d in self._pairs(
                    sinks, sources, common) if is_carried(d))

    def carried_either_way(self, first: Sequence[Node], second: Sequence[Node],
                           common: Sequence[str]) -> bool:
        """Whether a dependence between two bodies under the same ``common``
        loops, either way round, links two different iterations of them —
        the one reason the bodies cannot share them (fusion)."""
        common = tuple(common)
        gathered = [self._gather([entry for node in body
                                  for entry in nest_statements(node)], common)
                    for body in (first, second)]
        return any(is_carried(directions)
                   for sources, sinks in (gathered, gathered[::-1])
                   for _a, _b, directions in self._pairs(sources, sinks, common))


def _statement_accesses(statement: Node, known: Tuple[str, ...]
                        ) -> List[AffineAccess]:
    """The accesses of one statement, decomposed over ``known``."""
    if isinstance(statement, Computation):
        return computation_accesses(statement, known)
    if isinstance(statement, LibraryCall):
        # Library calls touch whole containers; model as rank-0 accesses
        # which force a conservative dependence on any overlap.
        return ([AffineAccess(name, (), False) for name in statement.inputs]
                + [AffineAccess(name, (), True) for name in statement.outputs])
    return []


# -- the pair test -------------------------------------------------------------


def _dimension_testable(index_a: AffineIndex, index_b: AffineIndex,
                        private_a: frozenset, private_b: frozenset) -> bool:
    """A dimension is testable when both subscripts are affine and do not
    involve iterators private to either side."""
    return (index_a.affine and index_b.affine
            and index_a.iterators.isdisjoint(private_a)
            and index_b.iterators.isdisjoint(private_b))


def _offsets_match(index_a: AffineIndex, index_b: AffineIndex) -> bool:
    """True when the parameter-dependent parts of both subscripts agree."""
    return index_a.offsets == index_b.offsets


def _test_dimension(index_a: AffineIndex, index_b: AffineIndex
                    ) -> Tuple[bool, Dict[str, Optional[int]]]:
    """Test a single subscript dimension that is :func:`_dimension_testable`
    — so every iterator either subscript varies in is a common one (both
    were decomposed over the common and the private iterators only).

    Returns ``(may_depend, constraints)``.  ``constraints`` maps iterator
    names to a required integer distance (``iteration_b - iteration_a``) when
    the dimension pins one down; a value of ``None`` means the dimension
    constrains that iterator to any single consistent value (not used here).
    ``may_depend=False`` proves independence outright.
    """
    coeffs_a = index_a.coefficient_of
    coeffs_b = index_b.coefficient_of
    involved = index_a.iterators | index_b.iterators

    if not involved:
        # ZIV: both subscripts are constants (possibly parameter-dependent).
        if _offsets_match(index_a, index_b):
            return (index_a.constant == index_b.constant), {}
        # Different parameter expressions: cannot disprove, no constraint.
        return True, {}

    if len(involved) == 1:
        iterator = next(iter(involved))
        a = coeffs_a.get(iterator, 0.0)
        b = coeffs_b.get(iterator, 0.0)
        if not _offsets_match(index_a, index_b):
            return True, {}
        delta = index_a.constant - index_b.constant
        if a == b and a != 0:
            # Strong SIV: a*i_a + c_a == a*i_b + c_b  =>  i_b - i_a = (c_a - c_b)/a
            distance = delta / a
            if abs(distance - round(distance)) > 1e-9:
                return False, {}
            return True, {iterator: int(round(distance))}
        if a != 0 and b != 0:
            # Weak SIV with differing coefficients: fall back to a GCD test.
            g = gcd(int(abs(a)), int(abs(b))) if float(a).is_integer() and float(b).is_integer() else 1
            if g != 0 and float(delta).is_integer() and int(delta) % g != 0:
                return False, {}
            return True, {}
        # One side does not use the iterator at all (e.g. A[i] vs A[0]):
        # a dependence may exist for a specific iteration; no distance pinned.
        return True, {}

    # MIV: multiple iterators involved.  Use a GCD test on integer coefficients.
    all_coeffs = []
    integral = True
    for name in involved:
        for value in (coeffs_a.get(name, 0.0), -coeffs_b.get(name, 0.0)):
            if value == 0:
                continue
            if not float(value).is_integer():
                integral = False
            all_coeffs.append(int(abs(value)) if float(value).is_integer() else 0)
    delta = index_b.constant - index_a.constant
    if integral and all_coeffs and float(delta).is_integer() and _offsets_match(index_a, index_b):
        g = 0
        for value in all_coeffs:
            g = gcd(g, value)
        if g != 0 and int(delta) % g != 0:
            return False, {}
    return True, {}


def _directions_from_constraints(constraints: Dict[str, Optional[int]],
                                 common_iterators: Sequence[str]
                                 ) -> Tuple[Tuple[str, ...], Tuple[Optional[int], ...]]:
    directions: List[str] = []
    distances: List[Optional[int]] = []
    for iterator in common_iterators:
        if iterator in constraints and constraints[iterator] is not None:
            distance = constraints[iterator]
            distances.append(distance)
            if distance > 0:
                directions.append(LT)
            elif distance < 0:
                directions.append(GT)
            else:
                directions.append(EQ)
        else:
            directions.append(ANY)
            distances.append(None)
    return tuple(directions), tuple(distances)


def _test_access_pair(affine_a: AffineAccess, private_a: frozenset,
                      affine_b: AffineAccess, private_b: frozenset,
                      common_iterators: Sequence[str]
                      ) -> Optional[Tuple[Tuple[str, ...], Tuple[Optional[int], ...]]]:
    """Test one pair of accesses to one container, at least one of them a
    write; returns direction/distance vectors or None."""
    if len(affine_a.indices) != len(affine_b.indices):
        # Rank mismatch (e.g. whole-container library-call access): conservative.
        return tuple(ANY for _ in common_iterators), tuple(None for _ in common_iterators)

    constraints: Dict[str, Optional[int]] = {}
    for index_a, index_b in zip(affine_a.indices, affine_b.indices):
        if not _dimension_testable(index_a, index_b, private_a, private_b):
            continue
        may_depend, dim_constraints = _test_dimension(index_a, index_b)
        if not may_depend:
            return None
        for iterator, distance in dim_constraints.items():
            if iterator in constraints and constraints[iterator] != distance:
                # Two dimensions demand inconsistent distances: independent.
                return None
            constraints[iterator] = distance

    return _directions_from_constraints(constraints, common_iterators)


def _classify(write_a: bool, write_b: bool) -> str:
    if write_a and write_b:
        return "output"
    if write_a:
        return "flow"
    return "anti"


def is_carried(directions: Sequence[str]) -> bool:
    """True when a dependence with these directions links two different
    iterations (some entry is not "=")."""
    return any(direction != EQ for direction in directions)


# -- reordering ----------------------------------------------------------------


#: Maximum number of unknown ("*") entries expanded when checking permutation
#: legality; vectors with more unknowns are treated conservatively.
MAX_ANY_EXPANSION = 8


def _expand_directions(directions: Sequence[str]) -> Iterable[Tuple[str, ...]]:
    """Expand "*" entries into all concrete direction symbols."""
    unknown_positions = [idx for idx, d in enumerate(directions) if d == ANY]
    if len(unknown_positions) > MAX_ANY_EXPANSION:
        # Too many unknowns to enumerate: behave conservatively by returning
        # a single backward vector, which makes any reordering illegal.
        yield tuple(GT if d == ANY else d for d in directions)
        return
    if not unknown_positions:
        yield tuple(directions)
        return
    for assignment in product(_DIRECTION_ORDER, repeat=len(unknown_positions)):
        concrete = list(directions)
        for position, symbol in zip(unknown_positions, assignment):
            concrete[position] = symbol
        yield tuple(concrete)


def _lexicographically_non_negative(directions: Sequence[str]) -> bool:
    """True if the direction vector cannot represent a backward dependence."""
    for direction in directions:
        if direction == LT:
            return True
        if direction == EQ:
            continue
        if direction == GT:
            return False
        if direction == ANY:
            # Unknown direction at the leading position could be ">".
            return False
    return True


def legal_permutations(loop: Loop) -> List[Tuple[str, ...]]:
    """The legal orders of the nest's perfectly nested band, in
    ``itertools.permutations`` order: those a band view of it
    (:meth:`~repro.analysis.band.BandView.order_is_legal`) allows."""
    from .band import BandView  # the view imports this module
    view = BandView(loop)
    return [order for order in iter_permutations(view.order())
            if view.order_is_legal(order)]
