"""The a-priori normalization pipeline, built on the unified pass framework.

:func:`normalize` runs a registered :class:`~repro.passes.pipeline.Pipeline`
of :class:`~repro.passes.base.Pass` stages (``repro.passes``) on a copy of
the input; :class:`NormalizationOptions` names the pipeline and binds the
symbolic sizes.  The paper's Figure 5 order is the ``"a-priori"`` pipeline:

1. loop normal form (zero-based, unit-step loops),
2. scalar expansion of per-iteration temporaries,
3. **maximal loop fission** as a fixed-point group,
4. **stride minimization** per resulting atomic loop nest,
5. canonical iterator renaming (so equivalent nests compare equal),
6. structural validation.

The Section 4.2 ablations are the sibling registrations ``"no-fission"``,
``"no-stride"``, ``"no-scalar-expansion"``, and ``"identity"``, and the
CLOUDSC case study runs ``"a-priori-keep-names"`` (no iterator renaming).
Every run returns a :class:`NormalizationReport` that carries, besides the
stage reports, one instrumented :class:`~repro.passes.base.PassResult` per
pass — wall time, change flag, counters, IR-size delta — which the
Session/serving layers aggregate into their reports.  Passing a shared
:class:`~repro.passes.analysis.AnalysisManager` memoizes per-nest analyses
(dependence edges, minimal permutations) across runs.

The pipeline never mutates its input; it returns a normalized copy together
with the report of what each stage did.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..ir.nodes import Program
from ..passes.analysis import AnalysisManager
from ..passes.base import PassContext, PassResult, aggregate_timings
from ..passes.pipeline import Pipeline, PipelineResult
from ..passes.registry import (PipelineRegistryError, get_pipeline,
                               has_pipeline, pipeline_names)
from .fission import FissionReport
from .scalar_expansion import ScalarExpansionReport
from .stride_minimization import StrideMinimizationReport


@dataclass
class NormalizationReport:
    """What the normalization pipeline did to one program.

    ``fission``, ``strides`` and ``scalar_expansion`` summarize their
    stages; ``passes`` carries the instrumented per-pass results of the
    pipeline run (one entry per pass application, fixed-point iterations
    included) and ``pipeline`` names the pipeline that produced them.
    """

    fission: FissionReport = field(default_factory=FissionReport)
    strides: StrideMinimizationReport = field(default_factory=StrideMinimizationReport)
    scalar_expansion: ScalarExpansionReport = field(default_factory=ScalarExpansionReport)
    canonical_iterators: bool = False
    validation_errors: Tuple[str, ...] = ()
    pipeline: str = ""
    passes: List[PassResult] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        """Whether any pass changed the program (a run of the empty
        ``identity`` pipeline changed nothing)."""
        return any(result.changed for result in self.passes)

    def pass_timings(self) -> Dict[str, float]:
        """Total wall time per pass name for this run."""
        return aggregate_timings(self.passes)

    def summary(self) -> str:
        return (f"fission: split {self.fission.loops_split} loops into "
                f"{self.fission.atomic_nests} atomic nests; "
                f"strides: permuted {self.strides.nests_permuted}/"
                f"{self.strides.nests_considered} nests "
                f"(cost {self.strides.total_cost_before:.1f} -> "
                f"{self.strides.total_cost_after:.1f})")

    def to_dict(self) -> Dict[str, object]:
        return {
            "fission": dataclasses.asdict(self.fission),
            "strides": dataclasses.asdict(self.strides),
            "scalar_expansion": {
                "expanded": [list(pair) for pair in self.scalar_expansion.expanded]},
            "canonical_iterators": self.canonical_iterators,
            "validation_errors": list(self.validation_errors),
            "pipeline": self.pipeline,
            "passes": [result.to_dict() for result in self.passes],
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "NormalizationReport":
        expansion = data.get("scalar_expansion") or {}
        return NormalizationReport(
            fission=FissionReport(**dict(data.get("fission") or {})),
            strides=StrideMinimizationReport(**dict(data.get("strides") or {})),
            scalar_expansion=ScalarExpansionReport(
                expanded=[tuple(pair) for pair in expansion.get("expanded", [])]),
            canonical_iterators=bool(data.get("canonical_iterators", False)),
            validation_errors=tuple(data.get("validation_errors", ())),
            pipeline=str(data.get("pipeline", "")),
            passes=[PassResult.from_dict(entry)
                    for entry in data.get("passes", ())],
        )


@dataclass(frozen=True)
class NormalizationOptions:
    """Which registered pipeline normalizes, with which symbolic sizes.

    ``pipeline`` names a registration (``"a-priori"``, an ablation, the
    rewrite family, or a third-party one) and is checked on construction,
    so a typo fails before any program is touched; ``parameters`` bind the
    symbolic sizes stride minimization prices strides with.
    """

    pipeline: str = "a-priori"
    parameters: Optional[Mapping[str, int]] = None

    def __post_init__(self) -> None:
        if not has_pipeline(self.pipeline):
            raise PipelineRegistryError(
                f"unknown pipeline {self.pipeline!r}; "
                f"registered: {pipeline_names()}")

    def to_pipeline(self) -> Pipeline:
        """A fresh instance of the named pipeline."""
        return get_pipeline(self.pipeline)


def _assemble_report(outcome: PipelineResult,
                     context: PassContext) -> NormalizationReport:
    return NormalizationReport(
        fission=context.scratch.get("fission", FissionReport()),
        strides=context.scratch.get("strides", StrideMinimizationReport()),
        scalar_expansion=context.scratch.get("scalar_expansion",
                                             ScalarExpansionReport()),
        canonical_iterators=bool(context.scratch.get("canonical_iterators", False)),
        validation_errors=tuple(context.scratch.get("validation_errors", ())),
        pipeline=outcome.pipeline,
        passes=list(outcome.passes),
    )


def normalize(program: Program,
              options: Optional[NormalizationOptions] = None,
              analysis: Optional[AnalysisManager] = None, *,
              pipeline: Optional[Pipeline] = None
              ) -> Tuple[Program, NormalizationReport]:
    """Run the configured normalization pipeline on a copy of ``program``.

    ``analysis`` optionally shares a memo of per-nest analyses across runs
    (the normalization cache passes its own, long-lived manager here).
    ``pipeline`` runs in place of the one ``options`` names: the cache
    hands over the instance it keyed with, and tests run unregistered
    stage lists this way.
    """
    options = options or NormalizationOptions()
    if pipeline is None:
        pipeline = options.to_pipeline()
    normalized = program.copy()
    # ``is not None``, not ``or``: an empty AnalysisManager is falsy through
    # ``__len__`` and must still be used (sharing it is the whole point).
    context = PassContext(parameters=options.parameters,
                          analysis=analysis if analysis is not None
                          else AnalysisManager())
    outcome = pipeline.run(normalized, context)
    return normalized, _assemble_report(outcome, context)


def normalize_program(program: Program, **kwargs) -> Program:
    """Convenience wrapper returning only the normalized program."""
    normalized, _ = normalize(program, NormalizationOptions(**kwargs) if kwargs else None)
    return normalized
