"""Pipelines: ordered, instrumented compositions of passes.

A :class:`Pipeline` is a named sequence of stages, where each stage is either
a single :class:`~repro.passes.base.Pass` or a :class:`FixedPoint` group that
repeats its member passes until none reports a change.  Running a pipeline
returns one :class:`~repro.passes.base.PassResult` per pass application, so
consumers get per-pass wall time, change counters, and IR-size deltas for
free.

``Pipeline.identity()`` is a stable string naming the pipeline *structure*
(name plus the ordered pass names, with fixed-point groups marked).  The
normalization cache folds it into its content-addressed keys, which is what
guarantees that e.g. ``"no-fission"`` results are never served from a
full-pipeline cache entry.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from ..ir.nodes import Program
from .base import Pass, PassResult

#: Safety bound for fixed-point groups; well-formed passes converge far
#: earlier (the maximal-fission group stops after its second sweep).
DEFAULT_MAX_ITERATIONS = 16


class FixedPoint:
    """A group of passes repeated until none reports a change."""

    def __init__(self, passes: Sequence[Pass]):
        if not passes:
            raise ValueError("a fixed-point group needs at least one pass")
        self.passes: List[Pass] = list(passes)

    def identity(self) -> str:
        return f"fp({'+'.join(p.name for p in self.passes)})"

    def run(self, program: Program,
            ir_size: Optional[int] = None) -> List[PassResult]:
        """Iterate to a fixed point; returns one result per application."""
        results: List[PassResult] = []
        for _iteration in range(DEFAULT_MAX_ITERATIONS):
            changed = False
            for stage_pass in self.passes:
                result = stage_pass.run(program, ir_size)
                results.append(result)
                ir_size = result.ir_size_after
                changed = result.changed or changed
            if not changed:
                break
        return results


#: What a pipeline is made of.
Stage = Union[Pass, FixedPoint]


class Pipeline:
    """A named, ordered sequence of passes and fixed-point groups."""

    def __init__(self, name: str, stages: Sequence[Stage] = ()):
        self.name = name
        self.stages: List[Stage] = list(stages)

    def identity(self) -> str:
        """Stable structural identity: cache-key material for pipeline runs."""
        parts = [stage.identity() if isinstance(stage, FixedPoint) else stage.name
                 for stage in self.stages]
        return f"{self.name}[{','.join(parts)}]"

    def run(self, program: Program) -> List[PassResult]:
        """Run every stage in order, mutating ``program`` in place; returns
        one result per pass application."""
        results: List[PassResult] = []
        # The IR size is taken once per pass boundary: each pass starts from
        # the size its predecessor left.
        ir_size: Optional[int] = None
        for stage in self.stages:
            if isinstance(stage, FixedPoint):
                results += stage.run(program, ir_size)
            else:
                results.append(stage.run(program, ir_size))
            if results:
                ir_size = results[-1].ir_size_after
        return results

    def __len__(self) -> int:
        return len(self.stages)

    def __repr__(self) -> str:
        return f"Pipeline({self.identity()!r})"
