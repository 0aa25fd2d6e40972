"""Stride cost functions for loop orders.

Section 2.2 defines a generic criterion ``stride(loop)`` that maps subsequent
accesses of a loop nest to a real value; the canonical choice is "the sum of
all distances between two subsequent accesses to all arrays over all
computations".  Two subsequent accesses differ by one step of the innermost
iterator, so the dominant term is the per-access stride with respect to the
innermost loop; outer loops contribute with geometrically decreasing weight
so that the total order over permutations is well defined.

The criterion is one function: :func:`band_strides` walks a nest's accesses
once, and :meth:`BandStrides.cost` prices any order of its band from that
walk.  A size parameter without a binding is priced at the nominal extent
:data:`DEFAULT_PARAMETER_VALUE`, so symbolic shapes need no second
criterion, and normalization prices every nest at those extents (a normal
form takes no sizes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..ir.arrays import Array
from ..ir.nodes import Computation, Loop, Program, band_starts, read_accesses
from .affine import AffineAccess, nest_statements

#: Nominal extent used for size parameters without a concrete binding when
#: evaluating symbolic strides.  Any value much larger than a cache line works;
#: the *ordering* of permutations is what matters.
DEFAULT_PARAMETER_VALUE = 256

#: Relative weight of each loop level when summing strides, innermost first.
LEVEL_WEIGHT_DECAY = 1e-3


def _array_strides(array: Array, parameters: Mapping[str, int]) -> Tuple[int, ...]:
    bindings = dict(parameters)
    for dim in array.shape:
        for symbol in dim.free_symbols():
            bindings.setdefault(symbol, DEFAULT_PARAMETER_VALUE)
    return array.row_major_strides(bindings)


def access_stride(access: AffineAccess, iterator: str,
                  element_strides: Sequence[int]) -> Optional[float]:
    """Address movement (in elements) when ``iterator`` advances by one.

    Returns ``None`` when the access is not affine (unknown stride).
    """
    if not access.affine:
        return None
    if len(element_strides) != len(access.indices):
        return None
    movement = 0.0
    for coefficient, stride in zip(access.columns.get(iterator, ()),
                                   element_strides):
        movement += coefficient * stride
    return movement


@dataclass(frozen=True)
class BandStrides:
    """What the stride cost of a nest reads of its statements: one walk,
    whatever the loop order.  Only the level weights depend on the order, so
    pricing many orders of one nest is one :func:`band_strides` and one
    :meth:`cost` per order."""

    #: Band iterator -> summed ``|stride|`` of all affine accesses.
    per_iterator: Mapping[str, float]
    #: Charge for the accesses whose stride is unknown.
    penalty: float
    non_affine_accesses: int

    def cost(self, order: Sequence[str]) -> float:
        """``stride(loop)`` with the band in ``order`` (outermost first): the
        innermost position gets weight 1, each level outward one decay."""
        innermost = len(order) - 1
        total = self.penalty
        for position, iterator in enumerate(order):
            total += (LEVEL_WEIGHT_DECAY ** (innermost - position)
                      * self.per_iterator[iterator])
        return total


def band_strides(loop: Loop, arrays: Mapping[str, Array],
                 parameters: Optional[Mapping[str, int]] = None) -> BandStrides:
    """Sum the strides of every access of the nest per band iterator.

    Loops below the perfectly nested band keep their position whatever the
    band order; their strides are not charged.  Every band iterator encloses
    every statement of the nest, so its coefficient in a subscript is the
    subscript's affine coefficient (:meth:`~repro.ir.symbols.Expr.as_affine`)
    whichever enclosing symbols count as iterators: no access is decomposed.
    """
    parameters = dict(parameters or {})
    per_iterator = {lp.iterator: 0.0 for lp in loop.perfectly_nested_band()}
    element_strides: Dict[str, Tuple[int, ...]] = {}
    non_affine = 0
    penalty = 0.0
    for statement, _enclosing in nest_statements(loop):
        if not isinstance(statement, Computation):
            continue
        for access in (*read_accesses(statement.value), statement.target):
            if access.array not in arrays:
                continue
            strides = element_strides.get(access.array)
            if strides is None:
                strides = element_strides[access.array] = _array_strides(
                    arrays[access.array], parameters)
            forms = [index.as_affine() for index in access.indices]
            if None in forms:
                non_affine += 1
                # Unknown accesses are charged a large constant so that
                # permutations cannot "hide" them.
                penalty += max(strides) if strides else 1.0
                continue
            if len(strides) != len(forms):
                continue
            # An iterator the access does not vary in moves it by 0.
            movement: Dict[str, float] = {}
            for (coefficients, _constant), stride in zip(forms, strides):
                for iterator, coefficient in coefficients.items():
                    if iterator in per_iterator:
                        movement[iterator] = (movement.get(iterator, 0.0)
                                              + float(coefficient) * stride)
            for iterator, moved in movement.items():
                per_iterator[iterator] += abs(moved)
    return BandStrides(per_iterator, penalty, non_affine)


def program_stride_cost(program: Program,
                        parameters: Optional[Mapping[str, int]] = None) -> float:
    """Sum of the stride costs of every band of a program, at every depth
    (:func:`~repro.ir.nodes.band_starts`), each in its current order."""
    total = 0.0
    for body, index in band_starts(program.body):
        strides = band_strides(body[index], program.arrays, parameters)
        total += strides.cost(tuple(strides.per_iterator))
    return total
