"""``repro.passes`` — the unified, instrumented pass framework.

One abstraction covers every normalization rewrite in the repo: a
:class:`Pass` is a function of its program that rewrites it in place and
returns ``(changed, counters)``.  Passes compose into
:class:`Pipeline` objects whose runs return one :class:`PassResult` per
pass application, with wall time, change counters and IR-size deltas.  A
normalization pipeline is selected by its registered name (``"a-priori"``
and its ablations).
"""

from .base import (Pass, PassResult, PassStats, program_fingerprint,
                   program_ir_size)
from .pipeline import DEFAULT_MAX_ITERATIONS, FixedPoint, Pipeline
from .registry import (PipelineRegistryError, get_pipeline, has_pipeline,
                       pipeline_names, register_pipeline, unregister_pipeline)
from .library import (CanonicalizeIteratorsPass, FissionSweepPass,
                      LoopNormalFormPass, ScalarExpansionPass,
                      StrideMinimizationPass, ValidatePass)

__all__ = [
    # protocol + instrumentation
    "Pass", "PassResult", "PassStats", "program_ir_size",
    "program_fingerprint",
    # composition
    "Pipeline", "FixedPoint", "DEFAULT_MAX_ITERATIONS",
    # registry
    "register_pipeline", "get_pipeline", "has_pipeline", "pipeline_names",
    "unregister_pipeline", "PipelineRegistryError",
    # shipped passes
    "LoopNormalFormPass", "ScalarExpansionPass", "FissionSweepPass",
    "StrideMinimizationPass", "CanonicalizeIteratorsPass", "ValidatePass",
]
