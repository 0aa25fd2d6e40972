"""Pipelines: ordered, instrumented compositions of passes.

A :class:`Pipeline` is a named sequence of stages, where each stage is either
a single :class:`~repro.passes.base.Pass` or a :class:`FixedPoint` group that
repeats its member passes until none reports a change.  Running a pipeline
produces a :class:`PipelineResult` carrying one
:class:`~repro.passes.base.PassResult` per pass application, so consumers get
per-pass wall time, change counters, and IR-size deltas for free.

``Pipeline.identity()`` is a stable string naming the pipeline *structure*
(name plus the ordered pass names, with fixed-point groups marked).  The
normalization cache folds it into its content-addressed keys, which is what
guarantees that e.g. ``"no-fission"`` results are never served from a
full-pipeline cache entry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from ..ir.nodes import Program
from .base import Pass, PassContext, PassResult, aggregate_timings

#: Safety bound for fixed-point groups (mirrors the historical bound of
#: ``maximal_loop_fission``; well-formed passes converge far earlier).
DEFAULT_MAX_ITERATIONS = 16


class FixedPoint:
    """A group of passes repeated until none reports a change."""

    def __init__(self, passes: Sequence[Pass], name: str = "fixed-point",
                 max_iterations: int = DEFAULT_MAX_ITERATIONS):
        if not passes:
            raise ValueError("a fixed-point group needs at least one pass")
        self.passes: List[Pass] = list(passes)
        self.name = name
        self.max_iterations = max_iterations

    def pass_names(self) -> List[str]:
        return [p.name for p in self.passes]

    def identity(self) -> str:
        return f"fp({'+'.join(self.pass_names())})"

    def run(self, program: Program, context: PassContext,
            ir_size: Optional[int] = None) -> "tuple[List[PassResult], int]":
        """Iterate to a fixed point; returns (per-application results, iterations)."""
        results: List[PassResult] = []
        for iteration in range(1, self.max_iterations + 1):
            changed = False
            for stage_pass in self.passes:
                result = stage_pass.run(program, context, ir_size)
                results.append(result)
                ir_size = result.ir_size_after
                changed = result.changed or changed
            if not changed:
                return results, iteration
        return results, self.max_iterations


#: What a pipeline is made of.
Stage = Union[Pass, FixedPoint]


@dataclass
class PipelineResult:
    """Everything one pipeline run did: per-pass results plus totals."""

    pipeline: str
    passes: List[PassResult] = field(default_factory=list)
    wall_time_s: float = 0.0
    fixed_point_iterations: Dict[str, int] = field(default_factory=dict)

    @property
    def changed(self) -> bool:
        return any(result.changed for result in self.passes)

    def counters(self) -> Dict[str, float]:
        """All counters of all passes, summed by name."""
        merged: Dict[str, float] = {}
        for result in self.passes:
            for key, value in result.counters.items():
                merged[key] = merged.get(key, 0) + value
        return merged

    def timings(self) -> Dict[str, float]:
        """Total wall time per pass name (fixed-point iterations summed)."""
        return aggregate_timings(self.passes)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "pipeline": self.pipeline,
            "passes": [result.to_dict() for result in self.passes],
            "wall_time_s": self.wall_time_s,
            "fixed_point_iterations": dict(self.fixed_point_iterations),
        }


class Pipeline:
    """A named, ordered sequence of passes and fixed-point groups."""

    def __init__(self, name: str, stages: Sequence[Stage] = ()):
        self.name = name
        self.stages: List[Stage] = list(stages)

    def pass_names(self) -> List[str]:
        names: List[str] = []
        for stage in self.stages:
            if isinstance(stage, FixedPoint):
                names.extend(stage.pass_names())
            else:
                names.append(stage.name)
        return names

    def identity(self) -> str:
        """Stable structural identity: cache-key material for pipeline runs."""
        parts = [stage.identity() if isinstance(stage, FixedPoint) else stage.name
                 for stage in self.stages]
        return f"{self.name}[{','.join(parts)}]"

    def run(self, program: Program,
            context: Optional[PassContext] = None) -> PipelineResult:
        """Run every stage in order, mutating ``program`` in place."""
        context = context or PassContext()
        result = PipelineResult(pipeline=self.name)
        started = time.perf_counter()
        # The IR size is taken once per pass boundary: each pass starts from
        # the size its predecessor left.
        ir_size: Optional[int] = None
        for stage in self.stages:
            if isinstance(stage, FixedPoint):
                stage_results, iterations = stage.run(program, context, ir_size)
                result.passes.extend(stage_results)
                result.fixed_point_iterations[stage.name] = iterations
            else:
                result.passes.append(stage.run(program, context, ir_size))
            if result.passes:
                ir_size = result.passes[-1].ir_size_after
        result.wall_time_s = time.perf_counter() - started
        return result

    def __len__(self) -> int:
        return len(self.stages)

    def __repr__(self) -> str:
        return f"Pipeline({self.identity()!r})"
