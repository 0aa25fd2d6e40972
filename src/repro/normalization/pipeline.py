"""The a-priori normalization pipeline, built on the unified pass framework.

:func:`normalize` runs a registered :class:`~repro.passes.pipeline.Pipeline`
of :class:`~repro.passes.base.Pass` stages (``repro.passes``) on a copy of
the input; :class:`NormalizationOptions` names the pipeline.  A normal form
takes no sizes: stride minimization prices strides at the nominal extents.
The paper's Figure 5 order is the ``"a-priori"`` pipeline:

1. loop normal form (zero-based, unit-step loops),
2. scalar expansion of per-iteration temporaries,
3. **maximal loop fission** as a fixed-point group,
4. **stride minimization** per resulting atomic loop nest,
5. canonical iterator renaming (so equivalent nests compare equal),
6. structural validation.

The Section 4.2 ablations are the sibling registrations ``"no-fission"``,
``"no-stride"``, ``"no-scalar-expansion"``, and ``"identity"``, and the
CLOUDSC case study runs ``"a-priori-keep-names"`` (no iterator renaming).
Every run returns a :class:`NormalizationReport`, the only record of the
run: one instrumented :class:`~repro.passes.base.PassResult` per pass —
wall time, change flag, counters, IR-size delta — which the Session/serving
layers aggregate into their reports, and whose summed counters are the
stage summaries.

The pipeline never mutates its input; it returns a normalized copy together
with the report of what each stage did.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..ir.nodes import Program
from ..passes.base import PassResult
from ..passes.pipeline import Pipeline
from ..passes.registry import (PipelineRegistryError, get_pipeline,
                               has_pipeline, pipeline_names)


@dataclass
class NormalizationReport:
    """What the normalization pipeline did to one program: ``passes`` holds
    one instrumented result per pass application (fixed-point iterations
    included) and ``pipeline`` names the pipeline that produced them.

    A stage's summary is its counters, summed over the run
    (:meth:`counters`): ``scalars_expanded``, ``loops_split`` and
    ``atomic_nests``, ``nests_considered``/``nests_permuted`` and the stride
    ``cost_before``/``cost_after``, ``validation_errors``.
    """

    pipeline: str = ""
    passes: List[PassResult] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        """Whether any pass changed the program (a run of the empty
        ``identity`` pipeline changed nothing)."""
        return any(result.changed for result in self.passes)

    def pass_timings(self) -> Dict[str, float]:
        """Total wall time per pass name for this run (fixed-point
        iterations summed)."""
        timings: Dict[str, float] = {}
        for result in self.passes:
            timings[result.pass_name] = (timings.get(result.pass_name, 0.0)
                                         + result.wall_time_s)
        return timings

    def counters(self) -> "collections.Counter[str]":
        """Every pass counter of this run, summed by name; a name no pass
        reported reads 0."""
        total: "collections.Counter[str]" = collections.Counter()
        for result in self.passes:
            total.update(result.counters)
        return total

    def summary(self) -> str:
        """Fission's and the stride pass's counters, summed over the run
        (:meth:`counters`)."""
        counters = self.counters()
        return (f"fission: split {counters['loops_split']} loops into "
                f"{counters['atomic_nests']} atomic nests; "
                f"strides: permuted {counters['nests_permuted']}/"
                f"{counters['nests_considered']} nests "
                f"(cost {counters['cost_before']:.1f} -> "
                f"{counters['cost_after']:.1f})")

    def to_dict(self) -> Dict[str, object]:
        return {
            "pipeline": self.pipeline,
            "passes": [result.to_dict() for result in self.passes],
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "NormalizationReport":
        return NormalizationReport(
            pipeline=str(data.get("pipeline", "")),
            passes=[PassResult.from_dict(entry)
                    for entry in data.get("passes", ())],
        )


@dataclass(frozen=True)
class NormalizationOptions:
    """Which registered pipeline normalizes.

    ``pipeline`` names a registration (``"a-priori"``, an ablation, or a
    third-party one) and is checked on construction,
    so a typo fails before any program is touched.  A normal form takes no
    sizes: stride minimization prices strides at the nominal extents.
    """

    pipeline: str = "a-priori"

    def __post_init__(self) -> None:
        if not has_pipeline(self.pipeline):
            raise PipelineRegistryError(
                f"unknown pipeline {self.pipeline!r}; "
                f"registered: {pipeline_names()}")

    def to_pipeline(self) -> Pipeline:
        """A fresh instance of the named pipeline."""
        return get_pipeline(self.pipeline)


def normalize(program: Program,
              options: Optional[NormalizationOptions] = None, *,
              pipeline: Optional[Pipeline] = None
              ) -> Tuple[Program, NormalizationReport]:
    """Run the configured normalization pipeline on a copy of ``program``.

    ``pipeline`` runs in place of the one ``options`` names: the cache
    hands over the instance it keyed with, and tests run unregistered
    stage lists this way.
    """
    options = options or NormalizationOptions()
    if pipeline is None:
        pipeline = options.to_pipeline()
    normalized = program.copy()
    return normalized, NormalizationReport(pipeline.name,
                                           pipeline.run(normalized))


def normalize_program(program: Program, **kwargs) -> Program:
    """Convenience wrapper returning only the normalized program."""
    normalized, _ = normalize(program, NormalizationOptions(**kwargs) if kwargs else None)
    return normalized
