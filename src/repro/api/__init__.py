"""``repro.api`` — the unified pipeline facade.

This package is the one blessed entry point for every consumer (experiments,
examples, benchmarks, services): a :class:`Session` bundles the frontend →
normalize → schedule → measure pipeline behind typed requests/responses, a
content-addressed normalization cache, and one shared transfer-tuning
database.

Plugins register through :func:`register_scheduler` / :func:`register_frontend`;
all built-in schedulers (daisy, polly, clang, icc, tiramisu, numpy, numba,
dace, evolutionary) and the C-like frontend are pre-registered.

Everything a pipeline consumer needs is importable from here — including the
configuration dataclasses, the workload registry, and the loop-level building
blocks used by the CLOUDSC case-study pipeline — so that consumer modules
never reach into ``repro.scheduler`` / ``repro.normalization`` directly.
"""

from ..analysis.band import BandView
from ..interp.executor import programs_equivalent, run_program
from ..ir.builder import ProgramBuilder
from ..ir.nodes import Loop, Program
from ..ir.printer import to_pseudocode
from ..normalization.pipeline import (NormalizationOptions, NormalizationReport,
                                      normalize_program)
from ..normalization.scalar_expansion import contract_arrays
from ..observability import (Counter, Gauge, Histogram, MetricsRegistry,
                             render_registry_dict)
from ..passes import (FixedPoint, Pass, PassResult, PassStats, Pipeline,
                      get_pipeline, pipeline_names, register_pipeline)
from ..perf.machine import DEFAULT_MACHINE, CacheLevel, MachineModel
from ..perf.model import CostModel
from ..scheduler.base import NestScheduleInfo, ScheduleResult, Scheduler
from ..scheduler.database import TuningDatabase
from ..scheduler.evolutionary import SearchConfig
from ..scheduler.tiramisu import MctsConfig
from ..transforms.fusion import fuse_adjacent_loops, fuse_chains_in_body
from ..workloads.cloudsc import (WEAK_SCALING_POINTS, CloudscConfiguration,
                                 build_cloudsc_model, build_erosion_kernel)
from ..workloads.registry import (BenchmarkSpec, all_benchmarks, benchmark,
                                  benchmark_names, polybench_benchmarks)
from .backends import (BackendStats, CacheBackend, MemoryCacheBackend,
                       SQLiteCacheBackend)
from .cache import CacheStats, NormalizationCache
from .hashing import canonical_program_dict, fingerprint, program_content_hash
from .registry import (FRONTENDS, SCHEDULERS, PluginInfo, Registry,
                       RegistryError, create_scheduler, register_frontend,
                       register_scheduler, scheduler_normalizes,
                       scheduler_tunes)
from .session import Session
from .types import (ExecuteResponse, NormalizeResponse, ProgramLike,
                    ScheduleRequest, ScheduleResponse, SessionReport)

__all__ = [
    # facade
    "Session",
    "ScheduleRequest", "ScheduleResponse", "NormalizeResponse",
    "ExecuteResponse", "SessionReport", "ProgramLike",
    # observability
    "MetricsRegistry", "Counter", "Gauge", "Histogram",
    "render_registry_dict",
    # caching / content addressing
    "NormalizationCache", "CacheStats",
    "CacheBackend", "BackendStats", "MemoryCacheBackend", "SQLiteCacheBackend",
    "canonical_program_dict", "fingerprint", "program_content_hash",
    # registries
    "Registry", "RegistryError", "PluginInfo", "SCHEDULERS", "FRONTENDS",
    "register_scheduler", "register_frontend", "create_scheduler",
    "scheduler_normalizes", "scheduler_tunes",
    # configuration surface
    "NormalizationOptions", "NormalizationReport", "SearchConfig", "MctsConfig",
    "MachineModel", "CacheLevel", "DEFAULT_MACHINE", "CostModel",
    # pass framework
    "Pass", "PassResult", "PassStats", "Pipeline", "FixedPoint",
    "register_pipeline", "get_pipeline", "pipeline_names",
    # scheduler interface types
    "Scheduler", "ScheduleResult", "NestScheduleInfo", "TuningDatabase",
    # IR / execution conveniences
    "Program", "ProgramBuilder", "Loop", "to_pseudocode",
    "normalize_program", "programs_equivalent", "run_program",
    # workloads
    "BenchmarkSpec", "all_benchmarks", "benchmark", "benchmark_names",
    "polybench_benchmarks",
    "CloudscConfiguration", "build_cloudsc_model", "build_erosion_kernel",
    "WEAK_SCALING_POINTS",
    # loop-level building blocks (CLOUDSC pipeline)
    "BandView", "contract_arrays", "fuse_adjacent_loops",
    "fuse_chains_in_body",
]
