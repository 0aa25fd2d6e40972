"""Parallelization and vectorization annotations."""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..analysis.band import BandView, Target
from .base import BandSchedule, TransformationError


class _Annotation(BandSchedule):
    """A schedule annotation of one loop of a nest: the loop named
    ``iterator``, or by default the outermost (``innermost = False``) or the
    innermost loop of the band."""

    iterator: Optional[str]
    innermost = True

    def _target(self, view: BandView) -> Target:
        if self.iterator is None:
            return len(view.frames) - 1 if self.innermost else 0
        target = view.find(self.iterator)
        if target is None:
            raise TransformationError(
                f"no loop with iterator {self.iterator!r} in nest")
        return target

    def within_band(self, view: BandView) -> bool:
        return self.iterator is None or isinstance(view.find(self.iterator), int)


class Parallelize(_Annotation):
    """Mark a loop for parallel execution across threads.

    By default the transformation refuses to parallelize loops that carry
    dependences.  Reduction loops can be forced with ``allow_reductions=True``
    — the performance model then charges the atomic-update penalty that the
    paper observes for correlation/covariance (Section 4.1).
    """

    name = "parallelize"
    innermost = False

    def __init__(self, nest_index: int, iterator: Optional[str] = None,
                 allow_reductions: bool = False):
        self.nest_index = int(nest_index)
        self.iterator = iterator
        self.allow_reductions = bool(allow_reductions)

    def params(self) -> Dict[str, Any]:
        return {"nest_index": self.nest_index, "iterator": self.iterator,
                "allow_reductions": self.allow_reductions}

    def schedule(self, view: BandView) -> None:
        target = self._target(view)
        info = view.parallelism(target)
        if not (info.is_parallel
                or (info.is_reduction and self.allow_reductions)):
            raise TransformationError(
                f"loop {view.header(target).iterator!r} in nest "
                f"{self.nest_index} carries dependences and cannot be "
                f"parallelized")
        view.annotate(target, parallel=True)


class Vectorize(_Annotation):
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

    def schedule(self, view: BandView) -> None:
        target = self._target(view)
        iterator = view.header(target).iterator
        info = view.parallelism(target)
        if not (info.is_parallel or info.is_reduction):
            raise TransformationError(
                f"loop {iterator!r} cannot be vectorized: it carries "
                f"non-reduction dependences")
        if self.require_unit_stride and not view.mostly_unit_stride(target):
            raise TransformationError(
                f"loop {iterator!r} has predominantly strided accesses; "
                f"refusing to vectorize")
        view.annotate(target, vectorized=True)


class Unroll(_Annotation):
    """Annotate a loop with an unroll factor (consumed by the CPU model)."""

    name = "unroll"

    def __init__(self, nest_index: int, iterator: Optional[str] = None, factor: int = 4):
        self.nest_index = int(nest_index)
        self.iterator = iterator
        self.factor = int(factor)

    def params(self) -> Dict[str, Any]:
        return {"nest_index": self.nest_index, "iterator": self.iterator,
                "factor": self.factor}

    def schedule(self, view: BandView) -> None:
        if self.factor < 1:
            raise TransformationError("unroll factor must be at least 1")
        view.annotate(self._target(view), unroll=self.factor)
