"""Parallelization and vectorization annotations."""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..analysis.parallelism import analyze_loop_parallelism
from ..analysis.strides import access_stride, _array_strides
from ..analysis.affine import loop_nest_accesses
from ..ir.nodes import Loop, Program
from ..passes.base import PassContext
from .base import (Transformation, TransformationError, get_nest,
                   shared_analysis)


def _find_loop(nest: Loop, iterator: Optional[str]) -> Loop:
    if iterator is None:
        return nest
    for loop in nest.iter_loops():
        if loop.iterator == iterator:
            return loop
    raise TransformationError(f"no loop with iterator {iterator!r} in nest")


class Parallelize(Transformation):
    """Mark a loop for parallel execution across threads.

    By default the transformation refuses to parallelize loops that carry
    dependences.  Reduction loops can be forced with ``allow_reductions=True``
    — the performance model then charges the atomic-update penalty that the
    paper observes for correlation/covariance (Section 4.1).
    """

    name = "parallelize"

    def __init__(self, nest_index: int, iterator: Optional[str] = None,
                 allow_reductions: bool = False):
        self.nest_index = int(nest_index)
        self.iterator = iterator
        self.allow_reductions = bool(allow_reductions)

    def params(self) -> Dict[str, Any]:
        return {"nest_index": self.nest_index, "iterator": self.iterator,
                "allow_reductions": self.allow_reductions}

    def apply(self, program: Program,
              context: Optional[PassContext] = None) -> None:
        nest = get_nest(program, self.nest_index)
        loop = _find_loop(nest, self.iterator)
        info = analyze_loop_parallelism(loop,
                                        analysis=shared_analysis(context))
        if not info.is_parallel:
            if info.is_reduction and self.allow_reductions:
                loop.parallel = True
                return
            raise TransformationError(
                f"loop {loop.iterator!r} in nest {self.nest_index} carries "
                f"dependences and cannot be parallelized")
        loop.parallel = True


class Vectorize(Transformation):
    """Mark the innermost loop of a nest for SIMD execution.

    Vectorization requires the loop to be parallel (or a reduction over a
    loop-invariant element) and profits only when the accesses are unit-stride
    or invariant; the transformation refuses otherwise so that recipes remain
    meaningful across loop nests.
    """

    name = "vectorize"

    def __init__(self, nest_index: int, iterator: Optional[str] = None,
                 require_unit_stride: bool = True):
        self.nest_index = int(nest_index)
        self.iterator = iterator
        self.require_unit_stride = bool(require_unit_stride)

    def params(self) -> Dict[str, Any]:
        return {"nest_index": self.nest_index, "iterator": self.iterator,
                "require_unit_stride": self.require_unit_stride}

    def apply(self, program: Program,
              context: Optional[PassContext] = None) -> None:
        nest = get_nest(program, self.nest_index)
        if self.iterator is None:
            band = nest.perfectly_nested_band()
            loop = band[-1]
        else:
            loop = _find_loop(nest, self.iterator)

        info = analyze_loop_parallelism(loop,
                                        analysis=shared_analysis(context))
        if not (info.is_parallel or info.is_reduction):
            raise TransformationError(
                f"loop {loop.iterator!r} cannot be vectorized: it carries "
                f"non-reduction dependences")

        if self.require_unit_stride and not _mostly_unit_stride(program, loop):
            raise TransformationError(
                f"loop {loop.iterator!r} has predominantly strided accesses; "
                f"refusing to vectorize")
        loop.vectorized = True


def _mostly_unit_stride(program: Program, loop: Loop) -> bool:
    """True when at least half of the affine accesses in the loop body are
    unit-stride or invariant with respect to the loop iterator."""
    good = 0
    total = 0
    for _comp, _enclosing, accesses in loop_nest_accesses(loop):
        for acc in accesses:
            if acc.array not in program.arrays:
                continue
            total += 1
            strides = _array_strides(program.arrays[acc.array], {})
            stride = access_stride(acc, loop.iterator, strides)
            if stride is not None and abs(stride) <= 1:
                good += 1
    if total == 0:
        return True
    return good * 2 >= total


class Unroll(Transformation):
    """Annotate a loop with an unroll factor (consumed by the CPU model)."""

    name = "unroll"

    def __init__(self, nest_index: int, iterator: Optional[str] = None, factor: int = 4):
        self.nest_index = int(nest_index)
        self.iterator = iterator
        self.factor = int(factor)

    def params(self) -> Dict[str, Any]:
        return {"nest_index": self.nest_index, "iterator": self.iterator,
                "factor": self.factor}

    def apply(self, program: Program,
              context: Optional[PassContext] = None) -> None:
        if self.factor < 1:
            raise TransformationError("unroll factor must be at least 1")
        nest = get_nest(program, self.nest_index)
        if self.iterator is None:
            loop = nest.perfectly_nested_band()[-1]
        else:
            loop = _find_loop(nest, self.iterator)
        loop.unroll = self.factor
