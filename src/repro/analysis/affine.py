"""Affine access-function extraction.

Most of the analyses in this library (dependence testing, stride cost,
parallelism detection) operate on *affine access functions*: each array
subscript is decomposed into ``sum(coeff_k * iterator_k) + offset`` where the
offset may still involve size parameters but not iterators.

Accesses that are not affine in the surrounding iterators are marked as such
and treated conservatively by all downstream analyses, mirroring the paper's
observation that loop nests that cannot be lifted to the symbolic
representation are simply left unoptimized (Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import FrozenSet, Iterable, List, Mapping, Tuple

from ..ir.nodes import (SLOTS, ArrayAccess, Computation, Loop, Node,
                        read_accesses)
from ..ir.symbols import Expr


@dataclass(frozen=True, **SLOTS)
class AffineIndex:
    """One subscript decomposed over the surrounding loop iterators.

    Attributes:
        coefficients: Iterator name -> integer coefficient.  Iterators not in
            the mapping have coefficient zero.
        offset_coefficients: Parameter name -> coefficient, for parts of the
            subscript that depend on size parameters (e.g. ``N - 1``).
        constant: The constant part of the subscript.
        affine: False when the subscript could not be decomposed; in that case
            the other fields are meaningless.

    What the dependence tests ask of every pair of subscripts is derived
    once, with the index: ``coefficient_of`` and ``offsets`` are the two
    coefficient tuples as mappings, ``iterators`` the names with a non-zero
    coefficient.
    """

    coefficients: Tuple[Tuple[str, float], ...]
    offset_coefficients: Tuple[Tuple[str, float], ...]
    constant: float
    affine: bool = True
    coefficient_of: Mapping[str, float] = field(init=False, repr=False, compare=False)
    offsets: Mapping[str, float] = field(init=False, repr=False, compare=False)
    iterators: FrozenSet[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficient_of", dict(self.coefficients))
        object.__setattr__(self, "offsets", dict(self.offset_coefficients))
        object.__setattr__(self, "iterators", frozenset(
            [name for name, coeff in self.coefficients if coeff != 0]))

    def coefficient(self, iterator: str) -> float:
        return self.coefficient_of.get(iterator, 0.0)

    def iterator_names(self) -> Tuple[str, ...]:
        return tuple(name for name, coeff in self.coefficients if coeff != 0)

    @staticmethod
    def non_affine() -> "AffineIndex":
        return AffineIndex((), (), 0.0, affine=False)


@dataclass(frozen=True)
class AffineAccess:
    """An array access with all subscripts decomposed affinely."""

    array: str
    indices: Tuple[AffineIndex, ...]
    is_write: bool

    @cached_property
    def affine(self) -> bool:
        return all(index.affine for index in self.indices)

    @cached_property
    def columns(self) -> Mapping[str, Tuple[float, ...]]:
        """Iterator -> its coefficient in every subscript, for exactly the
        iterators the access varies in."""
        names = {name for index in self.indices
                 for name, coeff in index.coefficients if coeff != 0}
        return {name: tuple(index.coefficient(name) for index in self.indices)
                for name in names}

    def uses_iterator(self, iterator: str) -> bool:
        return iterator in self.columns


def decompose_index(expr: Expr, iterators: Iterable[str]) -> AffineIndex:
    """Split one subscript into iterator and offset terms over ``iterators``.

    The split depends on the subscript and on which of its own symbols are
    iterators, nothing else, so it is kept on the (immutable) subscript
    under that key: fission at every loop level, the embedding's per-loop
    parallelism and every band view read one split wherever they agree on
    it, and a bare iterator (an interned leaf) holds at most two.
    """
    symbols = expr.free_symbols()
    used = symbols.intersection(iterators)
    if len(used) == len(symbols):
        used = symbols  # the same set: keep one object, not two
    try:
        memo = expr._split
    except AttributeError:
        memo = ()
    for known, found in memo:
        if known == used:
            return found
    found = _split_index(expr, used)
    expr._split = memo + ((used, found),)
    return found


def _split_index(expr: Expr, iterators: FrozenSet[str]) -> AffineIndex:
    affine_form = expr.as_affine()
    if affine_form is None:
        return AffineIndex.non_affine()
    coeffs, constant = affine_form
    iterator_coeffs = tuple(sorted(
        (name, float(coeff)) for name, coeff in coeffs.items() if name in iterators))
    parameter_coeffs = tuple(sorted(
        (name, float(coeff)) for name, coeff in coeffs.items() if name not in iterators))
    return AffineIndex(iterator_coeffs, parameter_coeffs, float(constant))


def decompose_access(access: ArrayAccess, iterators: Iterable[str],
                     is_write: bool) -> AffineAccess:
    """Decompose every subscript of ``access``.

    The answer depends on the access and on which of the symbols in its
    subscripts are iterators, nothing else, so it is kept on the (immutable)
    access under that key: every copy of a statement, every candidate
    schedule and every analysis reads the same decomposition.  A miss reads
    each subscript's own memo (:func:`decompose_index`).
    """
    symbols = access.free_symbols()
    used = symbols.intersection(iterators)
    if len(used) == len(symbols):
        used = symbols  # the same set: keep one object, not two
    try:
        memo = access._decomposed
    except AttributeError:
        memo = ()
    for known, write, found in memo:
        if write == is_write and known == used:
            return found
    found = AffineAccess(
        access.array,
        tuple(decompose_index(index, used) for index in access.indices),
        is_write)
    object.__setattr__(access, "_decomposed", memo + ((used, is_write, found),))
    return found


def computation_accesses(comp: Computation,
                         iterators: Iterable[str]) -> List[AffineAccess]:
    """All accesses of a computation decomposed over ``iterators``.

    The write is listed last so that analyses that care about order (for
    instance read-after-write within a statement) can rely on it.
    """
    accesses = [decompose_access(acc, iterators, is_write=False)
                for acc in read_accesses(comp.value)]
    accesses.append(decompose_access(comp.target, iterators, is_write=True))
    return accesses


def nest_statements(node: Node) -> List[Tuple[Node, Tuple[str, ...]]]:
    """Every statement (computation or library call) of a subtree in program
    order, with the iterators of the loops of the subtree that enclose it,
    outermost first — the one walk over a nest every analysis shares."""
    result: List[Tuple[Node, Tuple[str, ...]]] = []
    _gather_statements(node, (), result)
    return result


def _gather_statements(node: Node, enclosing: Tuple[str, ...],
                       result: List[Tuple[Node, Tuple[str, ...]]]) -> None:
    # A module-level helper, not a closure: a recursive closure is a
    # function<->cell cycle that keeps its locals alive until the cycle
    # collector runs.
    if isinstance(node, Loop):
        inner = enclosing + (node.iterator,)
        for child in node.body:
            _gather_statements(child, inner, result)
    else:
        result.append((node, enclosing))
