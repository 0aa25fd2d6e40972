"""The shipped passes and registry-named pipelines.

The a-priori normalization stages (Section 3.2, Figure 5) are wrapped here as
:class:`~repro.passes.base.Pass` subclasses, and the paper's pipeline plus
its Section 4.2 ablations are registered by name:

* ``"a-priori"``            — the full Figure 5 order: loop normal form,
  scalar expansion, maximal fission (fixed point), stride minimization,
  canonical iterator renaming, validation.
* ``"no-fission"``          — drops maximal fission (and scalar expansion,
  which only exists to enable fission).
* ``"no-stride"``           — drops stride minimization.
* ``"no-scalar-expansion"`` — drops only scalar expansion.
* ``"identity"``            — no rewriting at all (the "Opt"-only ablation
  and the internal pipeline of session-managed schedulers, whose input is
  already normalized).

Each stage pass deposits its classic stage report in ``context.scratch`` so
:func:`repro.normalization.pipeline.normalize` can keep assembling the
backward-compatible :class:`~repro.normalization.pipeline.NormalizationReport`.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..ir.nodes import Program
from ..ir.validation import validate_program
from ..normalization.fission import (MAX_FIXED_POINT_ITERATIONS, FissionReport,
                                     fission_sweep)
from ..normalization.loop_normal_form import (canonicalize_iterator_names,
                                              normalize_program_bounds)
from ..normalization.scalar_expansion import expand_scalars
from ..normalization.stride_minimization import minimize_strides
from .base import ApplyOutcome, Pass, PassContext
from .pipeline import FixedPoint, Pipeline
from .registry import register_pipeline


class LoopNormalFormPass(Pass):
    """Rewrite every loop to start at 0 with step 1 (classical preconditioning)."""

    name = "loop-normal-form"

    def apply(self, program: Program, context: PassContext) -> ApplyOutcome:
        return normalize_program_bounds(program)


class ScalarExpansionPass(Pass):
    """Promote per-iteration transient scalars to arrays (enables fission)."""

    name = "scalar-expansion"

    def apply(self, program: Program, context: PassContext) -> ApplyOutcome:
        report = expand_scalars(program)
        context.scratch["scalar_expansion"] = report
        return report.count > 0, {"scalars_expanded": report.count}


class FissionSweepPass(Pass):
    """One bottom-up maximal-fission sweep; grouped in a fixed point."""

    name = "maximal-fission"

    def apply(self, program: Program, context: PassContext) -> ApplyOutcome:
        report = context.scratch.setdefault("fission", FissionReport())
        # Counters are per-sweep deltas (the report accumulates across the
        # fixed point, and summing per-application counters must not
        # double-count); ``atomic_nests`` is a gauge, reported by the final
        # no-change sweep only.
        split_before = report.loops_split
        changed = fission_sweep(program, report, context.analysis)
        counters = {"loops_split": report.loops_split - split_before}
        if not changed:
            counters["atomic_nests"] = report.atomic_nests
        return changed, counters


class StrideMinimizationPass(Pass):
    """Per nest, pick the legal loop order minimizing the stride cost."""

    name = "stride-minimization"

    def apply(self, program: Program, context: PassContext) -> ApplyOutcome:
        report = minimize_strides(program, context.parameters, context.analysis)
        context.scratch["strides"] = report
        return report.nests_permuted > 0, {
            "nests_considered": report.nests_considered,
            "nests_permuted": report.nests_permuted,
            "permutations_evaluated": report.permutations_evaluated,
        }


class CanonicalizeIteratorsPass(Pass):
    """Rename iterators to ``i0, i1, ...`` so equivalent nests compare equal."""

    name = "canonicalize-iterators"

    def apply(self, program: Program, context: PassContext) -> ApplyOutcome:
        context.scratch["canonical_iterators"] = True
        return canonicalize_iterator_names(program)


class ValidatePass(Pass):
    """Structural validation; never rewrites, only reports errors."""

    name = "validate"

    def apply(self, program: Program, context: PassContext) -> ApplyOutcome:
        errors = tuple(validate_program(program, strict=False))
        context.scratch["validation_errors"] = errors
        return False, {"validation_errors": len(errors)}


# ---------------------------------------------------------------------------
# Pipeline construction
# ---------------------------------------------------------------------------

#: Flag combinations of the registered pipeline names, mirroring the fields
#: of :class:`~repro.normalization.pipeline.NormalizationOptions`.
NAMED_PIPELINE_FLAGS: Dict[str, Dict[str, bool]] = {
    "a-priori": {},
    "no-fission": {"apply_fission": False, "apply_scalar_expansion": False},
    "no-stride": {"apply_stride_minimization": False},
    "no-scalar-expansion": {"apply_scalar_expansion": False},
    "identity": {"normalize_bounds": False, "apply_scalar_expansion": False,
                 "apply_fission": False, "apply_stride_minimization": False,
                 "canonicalize_iterators": False, "validate": False},
}

_FLAG_DEFAULTS: Dict[str, bool] = {
    "normalize_bounds": True,
    "apply_scalar_expansion": True,
    "apply_fission": True,
    "apply_stride_minimization": True,
    "canonicalize_iterators": True,
    "validate": True,
}


def _resolve_name(flags: Dict[str, bool]) -> str:
    for name, overrides in NAMED_PIPELINE_FLAGS.items():
        named = dict(_FLAG_DEFAULTS, **overrides)
        if named == flags:
            return name
    return "custom"


def build_normalization_pipeline(name: Optional[str] = None,
                                 **overrides: bool) -> Pipeline:
    """Build a normalization pipeline from a registered name or from flags.

    With ``name`` given, the flags of that registered pipeline are used; with
    flag overrides only, the stages are assembled accordingly and the
    pipeline is named after the matching registered combination (or
    ``"custom"``).
    """
    if name is not None:
        if name not in NAMED_PIPELINE_FLAGS:
            from .registry import get_pipeline
            return get_pipeline(name)  # third-party registrations
        overrides = dict(NAMED_PIPELINE_FLAGS[name])
    flags = dict(_FLAG_DEFAULTS)
    flags.update(overrides)

    stages = []
    if flags["normalize_bounds"]:
        stages.append(LoopNormalFormPass())
    if flags["apply_scalar_expansion"]:
        stages.append(ScalarExpansionPass())
    if flags["apply_fission"]:
        stages.append(FixedPoint([FissionSweepPass()],
                                 name="maximal-fission",
                                 max_iterations=MAX_FIXED_POINT_ITERATIONS))
    if flags["apply_stride_minimization"]:
        stages.append(StrideMinimizationPass())
    if flags["canonicalize_iterators"]:
        stages.append(CanonicalizeIteratorsPass())
    if flags["validate"]:
        stages.append(ValidatePass())
    return Pipeline(name or _resolve_name(flags), stages)


def _register_named_pipelines() -> None:
    for pipeline_name in NAMED_PIPELINE_FLAGS:
        def factory(pipeline_name: str = pipeline_name) -> Pipeline:
            return build_normalization_pipeline(pipeline_name)

        register_pipeline(pipeline_name)(factory)


_register_named_pipelines()
