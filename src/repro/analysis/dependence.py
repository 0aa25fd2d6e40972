"""Data-dependence analysis over the symbolic loop-nest IR.

The normalization passes rely on two legality questions:

* **Fission / distribution** (Section 2.1): which computations within a loop
  body can be separated into their own loop nests?
* **Permutation** (Section 2.2): which loop orders of a nest preserve the
  original semantics?

Fission and the parallelism of a loop read one scan of its body
(:func:`body_dependences`); permutation reads a nest's direction vectors.
Both are answered through classical data-dependence analysis on affine
subscripts: ZIV and strong-SIV tests with a GCD fallback produce dependence
*direction vectors*; anything that cannot be analyzed is treated
conservatively as a dependence with unknown direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations as iter_permutations, product
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..ir.nodes import Computation, LibraryCall, Loop, Node
from .affine import (AffineAccess, AffineIndex, computation_accesses,
                     nest_statements)

#: Direction symbols: "<" (carried forward), "=" (same iteration),
#: ">" (carried backward), "*" (unknown).
LT, EQ, GT, ANY = "<", "=", ">", "*"

_DIRECTION_ORDER = (LT, EQ, GT)


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


# -- helpers -------------------------------------------------------------------


#: What :func:`~repro.analysis.affine.nest_statements` returns: the
#: statements of a subtree with the iterators enclosing each inside it.
Statements = Sequence[Tuple[Node, Tuple[str, ...]]]


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
            from math import gcd
            g = gcd(int(abs(a)), int(abs(b))) if float(a).is_integer() and float(b).is_integer() else 1
            if g != 0 and float(delta).is_integer() and int(delta) % g != 0:
                return False, {}
            return True, {}
        # One side does not use the iterator at all (e.g. A[i] vs A[0]):
        # a dependence may exist for a specific iteration; no distance pinned.
        return True, {}

    # MIV: multiple iterators involved.  Use a GCD test on integer coefficients.
    from math import gcd
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


# -- public API ----------------------------------------------------------------


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
            result = _test_access_pair(acc_a, private_a, acc_b, private_b,
                                       common_iterators)
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


def is_carried(directions: Sequence[str]) -> bool:
    """True when a dependence with these directions links two different
    iterations (some entry is not "=")."""
    return any(direction != EQ for direction in directions)


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


#: Maximum number of unknown ("*") entries expanded when checking permutation
#: legality; vectors with more unknowns are treated conservatively.
MAX_ANY_EXPANSION = 8


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
    """Enumerate legal permutations of the nest's perfectly nested band."""
    band = loop.perfectly_nested_band()
    vectors = nest_direction_vectors(loop)
    return [perm for perm in iter_permutations([lp.iterator for lp in band])
            if band_order_is_legal(band, vectors, perm)]
