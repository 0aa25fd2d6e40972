"""The shipped passes and registry-named pipelines.

The a-priori normalization stages (Section 3.2, Figure 5) are wrapped here as
:class:`~repro.passes.base.Pass` subclasses, and the paper's pipeline plus
its Section 4.2 ablations are registered by name, each as a literal stage
list:

* ``"a-priori"``            — the full Figure 5 order: loop normal form,
  scalar expansion, maximal fission (fixed point), stride minimization,
  canonical iterator renaming, validation.
* ``"a-priori-keep-names"`` — the same without iterator renaming (the
  CLOUDSC case study keeps its source names).
* ``"no-fission"``          — drops maximal fission (and scalar expansion,
  which only exists to enable fission).
* ``"no-stride"``           — drops stride minimization.
* ``"no-scalar-expansion"`` — drops only scalar expansion.
* ``"identity"``            — no stages at all (the "Opt"-only ablation).

Each stage pass hands on what its stage function returns, as
:class:`~repro.passes.base.PassResult` counters; the
:class:`~repro.normalization.pipeline.NormalizationReport` of a run is
those results, and its stage summary their sums.
"""

from __future__ import annotations

from ..ir.nodes import Program
from ..ir.validation import validate_program
from ..normalization.fission import maximal_loop_fission
from ..normalization.loop_normal_form import (canonicalize_iterator_names,
                                              normalize_program_bounds)
from ..normalization.scalar_expansion import expand_scalars
from ..normalization.stride_minimization import minimize_strides
from .base import ApplyOutcome, Pass
from .pipeline import FixedPoint, Pipeline
from .registry import register_pipeline


class LoopNormalFormPass(Pass):
    """Rewrite every loop to start at 0 with step 1 (classical preconditioning)."""

    name = "loop-normal-form"

    def apply(self, program: Program) -> ApplyOutcome:
        return normalize_program_bounds(program), {}


class ScalarExpansionPass(Pass):
    """Promote per-iteration transient scalars to arrays (enables fission)."""

    name = "scalar-expansion"

    def apply(self, program: Program) -> ApplyOutcome:
        expanded = len(expand_scalars(program))
        return expanded > 0, {"scalars_expanded": expanded}


class FissionSweepPass(Pass):
    """Maximal loop fission, one bottom-up sweep.

    The sweep is maximal, so the :class:`FixedPoint` group around it always
    stops after a second sweep that splits nothing.  The group stays because
    its ``fp(maximal-fission)`` identity keys persisted normalized entries.
    """

    name = "maximal-fission"

    def apply(self, program: Program) -> ApplyOutcome:
        # Each sweep reports its own splits, so the run's counters sum to
        # the total; ``atomic_nests`` is a gauge, reported by the final
        # no-change sweep only.
        split = maximal_loop_fission(program)
        if split:
            return True, {"loops_split": split}
        return False, {"loops_split": 0,
                       "atomic_nests": len(program.top_level_loops())}


class StrideMinimizationPass(Pass):
    """For every band, at every depth, pick the legal loop order minimizing
    the stride cost."""

    name = "stride-minimization"

    def apply(self, program: Program) -> ApplyOutcome:
        counters = minimize_strides(program)
        return counters["nests_permuted"] > 0, counters


class CanonicalizeIteratorsPass(Pass):
    """Rename iterators to ``i0, i1, ...`` so equivalent nests compare equal."""

    name = "canonicalize-iterators"

    def apply(self, program: Program) -> ApplyOutcome:
        return canonicalize_iterator_names(program), {}


class ValidatePass(Pass):
    """Structural validation; never rewrites, only counts errors."""

    name = "validate"

    def apply(self, program: Program) -> ApplyOutcome:
        errors = validate_program(program, strict=False)
        return False, {"validation_errors": len(errors)}


# ---------------------------------------------------------------------------
# Pipeline registrations
# ---------------------------------------------------------------------------


def _fission() -> FixedPoint:
    return FixedPoint([FissionSweepPass()])


@register_pipeline("a-priori")
def _a_priori() -> Pipeline:
    """The paper's Figure 5 order."""
    return Pipeline("a-priori", [
        LoopNormalFormPass(), ScalarExpansionPass(), _fission(),
        StrideMinimizationPass(), CanonicalizeIteratorsPass(), ValidatePass()])


@register_pipeline("a-priori-keep-names")
def _a_priori_keep_names() -> Pipeline:
    """Figure 5 without iterator renaming: CLOUDSC keeps its source names."""
    return Pipeline("a-priori-keep-names", [
        LoopNormalFormPass(), ScalarExpansionPass(), _fission(),
        StrideMinimizationPass(), ValidatePass()])


@register_pipeline("no-fission")
def _no_fission() -> Pipeline:
    """Drops fission, and scalar expansion, which only exists to enable it."""
    return Pipeline("no-fission", [
        LoopNormalFormPass(), StrideMinimizationPass(),
        CanonicalizeIteratorsPass(), ValidatePass()])


@register_pipeline("no-stride")
def _no_stride() -> Pipeline:
    return Pipeline("no-stride", [
        LoopNormalFormPass(), ScalarExpansionPass(), _fission(),
        CanonicalizeIteratorsPass(), ValidatePass()])


@register_pipeline("no-scalar-expansion")
def _no_scalar_expansion() -> Pipeline:
    return Pipeline("no-scalar-expansion", [
        LoopNormalFormPass(), _fission(), StrideMinimizationPass(),
        CanonicalizeIteratorsPass(), ValidatePass()])


@register_pipeline("identity")
def _identity() -> Pipeline:
    """No stages at all: the "Opt"-only ablation."""
    return Pipeline("identity", [])
