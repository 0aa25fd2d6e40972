"""Figure 12: strong and weak scaling of CLOUDSC.

Strong scaling (Figure 12a): the full model at NPROMA=128, NBLOCKS=512 run
with 1-12 threads; the block loop is the parallel dimension.  Weak scaling
(Figure 12b): the workload grows with the thread count (65536 columns per
thread), keeping NPROMA=128.  For both, the Fortran baseline and the daisy
version are modeled directly and the C/DaCe versions as calibrated factors,
as in Figure 11.

The model is built and optimized once per run, for all scaling points.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..api import WEAK_SCALING_POINTS, CloudscConfiguration
from .cloudsc_pipeline import PIPELINE, VERSIONS, model_runtimes
from .common import ExperimentSettings, format_table

STRONG_SCALING_THREADS = (1, 2, 4, 6, 8, 10, 12)


def _rows(settings: Optional[ExperimentSettings],
          points: Sequence[Tuple[CloudscConfiguration, int]],
          keys: Sequence[Dict[str, int]]) -> List[Dict[str, object]]:
    """One row per version per ``(configuration, threads)`` point, led by
    that point's ``keys``."""
    settings = settings or ExperimentSettings()
    runtimes, _ = model_runtimes(settings.session(PIPELINE), points)
    return [{**key, "version": version, "runtime_s": per_version[version],
             "daisy_speedup_over_fortran":
                 per_version["fortran"] / per_version["daisy"]
                 if version == "daisy" else None}
            for key, per_version in zip(keys, runtimes) for version in VERSIONS]


def run_strong_scaling(settings: Optional[ExperimentSettings] = None,
                       threads: Sequence[int] = STRONG_SCALING_THREADS
                       ) -> List[Dict[str, object]]:
    """Figure 12a: fixed problem size, increasing thread count."""
    configuration = CloudscConfiguration(nproma=128, nblocks=512)
    return _rows(settings, [(configuration, count) for count in threads],
                 [{"threads": count} for count in threads])


def run_weak_scaling(settings: Optional[ExperimentSettings] = None,
                     points: Sequence[Tuple[int, int]] = WEAK_SCALING_POINTS
                     ) -> List[Dict[str, object]]:
    """Figure 12b: workload grows proportionally with the thread count."""
    return _rows(settings,
                 [(CloudscConfiguration(nproma=128, nblocks=max(1, columns // 128)),
                   threads) for columns, threads in points],
                 [{"workload": columns, "threads": threads}
                  for columns, threads in points])


def format_strong(rows: List[Dict[str, object]]) -> str:
    return format_table(rows, ["threads", "version", "runtime_s",
                               "daisy_speedup_over_fortran"])


def format_weak(rows: List[Dict[str, object]]) -> str:
    return format_table(rows, ["workload", "threads", "version", "runtime_s",
                               "daisy_speedup_over_fortran"])
