"""repro — reproduction of "A Priori Loop Nest Normalization" (CGO 2025).

The package is organized in layers:

* :mod:`repro.ir` — the symbolic loop-nest representation.
* :mod:`repro.frontend` — the C-like source frontend (further frontends
  plug in through :func:`repro.api.register_frontend`).
* :mod:`repro.analysis` — dependence, parallelism and stride analyses, and
  the per-body read/write (dataflow) summary fusion reads.
* :mod:`repro.passes` — the unified pass framework: instrumented passes,
  pipelines with fixed-point groups, the named-pipeline registry, and
  memoized per-nest analyses.
* :mod:`repro.normalization` — the paper's two normalization criteria,
  packaged as registered pass pipelines.
* :mod:`repro.transforms` — classical loop transformations and idiom detection.
* :mod:`repro.interp` — a reference interpreter for semantic validation.
* :mod:`repro.perf` — the cache/CPU performance-model substrate.
* :mod:`repro.scheduler` — the daisy auto-scheduler, the baselines, and the
  transfer-tuning database.
* :mod:`repro.workloads` — PolyBench A/B variants, NPBench variants, CLOUDSC proxy.
* :mod:`repro.api` — the unified Session facade: pluggable scheduler and
  frontend registries and a content-addressed normalization, schedule and
  response cache over pluggable backends.  **New code should go through
  this layer.**
* :mod:`repro.observability` — dependency-free metrics (counters, gauges,
  per-priority latency histograms) with Prometheus text rendering, request
  traces and a queue-saturation alert.
* :mod:`repro.serving` — the scheduling service: priority queue, admission
  control, one request at a time over one in-process session, HTTP endpoint
  (``/metrics`` included), and CLI.
* :mod:`repro.experiments` — per-figure/table reproduction harnesses.

See ``README.md`` and ``docs/`` for the user-facing documentation.
"""

from .api import (RegistryError, ScheduleRequest, ScheduleResponse, Session,
                  register_frontend, register_scheduler)
from .ir import Program, ProgramBuilder
from .normalization import NormalizationOptions, normalize, normalize_program

__version__ = "0.1.0"

__all__ = [
    "Program",
    "ProgramBuilder",
    "NormalizationOptions",
    "normalize",
    "normalize_program",
    "Session",
    "ScheduleRequest",
    "ScheduleResponse",
    "RegistryError",
    "register_scheduler",
    "register_frontend",
    "__version__",
]
