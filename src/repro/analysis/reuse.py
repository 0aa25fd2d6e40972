"""Reuse-distance and working-set estimation.

The normalization is motivated by memory-hierarchy cost (Section 2): the
reuse distance of accesses determines cache behavior.  This module gives a
cheap static estimate of per-array reuse distances and loop-nest working
sets, used by the performance embeddings and as a sanity metric in tests.
The precise cache behavior is measured by the cache simulator in
:mod:`repro.perf.cache`; this module is the *analytical* counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from ..ir.arrays import Array
from ..ir.nodes import Loop, Program
from .affine import loop_nest_accesses
from .strides import DEFAULT_PARAMETER_VALUE, _array_strides, access_stride


@dataclass(frozen=True)
class ReuseEstimate:
    """Static reuse summary for one loop nest."""

    #: Estimated number of distinct elements touched per innermost iteration.
    innermost_footprint: float
    #: Estimated number of distinct elements touched by one full execution of
    #: the innermost loop.
    innermost_working_set: float
    #: Estimated reuse distance (in accessed elements) for temporally reused
    #: values, per array.
    per_array_reuse: Tuple[Tuple[str, float], ...]

    def reuse_of(self, array: str) -> Optional[float]:
        for name, value in self.per_array_reuse:
            if name == array:
                return value
        return None


def _loop_extents(loop: Loop, parameters: Mapping[str, int]) -> Dict[str, int]:
    extents: Dict[str, int] = {}
    bindings = dict(parameters)
    for inner in loop.iter_loops():
        for expr in (inner.start, inner.end, inner.step):
            for symbol in expr.free_symbols():
                bindings.setdefault(symbol, DEFAULT_PARAMETER_VALUE)
    for inner in loop.iter_loops():
        try:
            extents[inner.iterator] = inner.trip_count(bindings)
        except (KeyError, ValueError):
            extents[inner.iterator] = DEFAULT_PARAMETER_VALUE
    return extents


def estimate_reuse(loop: Loop, arrays: Mapping[str, Array],
                   parameters: Optional[Mapping[str, int]] = None) -> ReuseEstimate:
    """Estimate reuse behavior of a loop nest.

    The estimate distinguishes three access classes per (computation, access):

    * invariant in the innermost loop — temporal reuse with distance equal to
      the per-iteration footprint;
    * unit stride in the innermost loop — spatial reuse, footprint counted
      once per cache line;
    * larger strides — no short-distance reuse, footprint counted per access.
    """
    parameters = dict(parameters or {})
    extents = _loop_extents(loop, parameters)
    band = loop.perfectly_nested_band()
    innermost = band[-1].iterator
    inner_trip = max(1, extents.get(innermost, DEFAULT_PARAMETER_VALUE))

    per_iteration = 0.0
    per_execution = 0.0
    reuse: Dict[str, float] = {}

    for _comp, _enclosing, accesses in loop_nest_accesses(loop):
        for access in accesses:
            if access.array not in arrays:
                continue
            element_strides = _array_strides(arrays[access.array], parameters)
            stride = access_stride(access, innermost, element_strides)
            per_iteration += 1.0
            if stride is None:
                per_execution += float(inner_trip)
                continue
            if stride == 0:
                # Temporal reuse across innermost iterations: the value is
                # touched every iteration but occupies one element.
                per_execution += 1.0
                reuse[access.array] = min(
                    reuse.get(access.array, float("inf")), per_iteration)
            elif abs(stride) == 1:
                per_execution += float(inner_trip)
                reuse.setdefault(access.array, float(per_iteration))
            else:
                per_execution += float(inner_trip)

    finite_reuse = tuple(sorted(
        (name, value) for name, value in reuse.items() if value != float("inf")))
    return ReuseEstimate(innermost_footprint=per_iteration,
                         innermost_working_set=per_execution,
                         per_array_reuse=finite_reuse)


def program_working_set_bytes(program: Program,
                              parameters: Optional[Mapping[str, int]] = None) -> int:
    """Total bytes of all non-transient containers under concrete bindings."""
    parameters = dict(parameters or {})
    total = 0
    for arr in program.arrays.values():
        if arr.transient:
            continue
        bindings = dict(parameters)
        for dim in arr.shape:
            for symbol in dim.free_symbols():
                bindings.setdefault(symbol, DEFAULT_PARAMETER_VALUE)
        total += arr.size_in_bytes(bindings)
    return total
