"""``repro.passes`` — the unified, instrumented pass framework.

One abstraction covers every program rewrite in the repo: the a-priori
normalization stages and the scheduling transformations are :class:`Pass`
objects, composed into :class:`Pipeline` objects with per-pass wall time,
change counters, and IR-size deltas collected on every run.  A
normalization pipeline is selected by its registered name (``"a-priori"``
and its ablations, the expression-rewrite family of
:mod:`repro.passes.rewrite`), and an :class:`AnalysisManager` memoizes
per-nest analyses so repeated normalization of equivalent nests gets
measurably faster.
"""

from .analysis import AnalysisManager, node_fingerprint, program_fingerprint
from .base import Pass, PassContext, PassResult, PassStats, program_ir_size
from .pipeline import (DEFAULT_MAX_ITERATIONS, FixedPoint, Pipeline,
                       PipelineResult)
from .registry import (PipelineRegistryError, get_pipeline, has_pipeline,
                       pipeline_bit_exact, pipeline_names, register_pipeline,
                       unregister_pipeline)
from .library import (CanonicalizeIteratorsPass, FissionSweepPass,
                      LoopNormalFormPass, ScalarExpansionPass,
                      StrideMinimizationPass, ValidatePass)
from .rewrite import (CommonSubexpressionEliminationPass,
                      ConstantPreEvaluationPass, ExpansionPass,
                      FactorizationPass, LoopInvariantCodeMotionPass)

__all__ = [
    # protocol + instrumentation
    "Pass", "PassContext", "PassResult", "PassStats", "program_ir_size",
    # composition
    "Pipeline", "PipelineResult", "FixedPoint", "DEFAULT_MAX_ITERATIONS",
    # registry
    "register_pipeline", "get_pipeline", "has_pipeline", "pipeline_names",
    "pipeline_bit_exact", "unregister_pipeline", "PipelineRegistryError",
    # memoized analyses
    "AnalysisManager", "node_fingerprint", "program_fingerprint",
    # shipped passes
    "LoopNormalFormPass", "ScalarExpansionPass", "FissionSweepPass",
    "StrideMinimizationPass", "CanonicalizeIteratorsPass", "ValidatePass",
    # expression-rewrite family
    "ConstantPreEvaluationPass", "FactorizationPass", "ExpansionPass",
    "LoopInvariantCodeMotionPass", "CommonSubexpressionEliminationPass",
]
