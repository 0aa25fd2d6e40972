"""Figure 12: strong and weak scaling of CLOUDSC.

Strong scaling (Figure 12a): the full model at NPROMA=128, NBLOCKS=512 run
with 1-12 threads; the block loop is the parallel dimension.  Weak scaling
(Figure 12b): the workload grows with the thread count (65536 columns per
thread), keeping NPROMA=128.  For both, the Fortran baseline and the daisy
version are modeled directly and the C/DaCe versions as calibrated factors,
as in Figure 11.

One session serves every scaling point, so the normalization-plus-fusion
pipeline runs once and the per-thread-count evaluations hit the cache.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..api import (WEAK_SCALING_POINTS, CloudscConfiguration, Session,
                   build_cloudsc_model)
from .cloudsc_pipeline import (C_CODEGEN_FACTOR, DACE_CODEGEN_FACTOR,
                               PIPELINE, annotate_baseline,
                               daisy_optimize)
from .common import ExperimentSettings, format_table

STRONG_SCALING_THREADS = (1, 2, 4, 6, 8, 10, 12)
VERSIONS = ("fortran", "c", "dace", "daisy")


def _runtimes_for(session: Session, configuration: CloudscConfiguration,
                  threads: int) -> Dict[str, float]:
    parameters = configuration.parameters()
    program = build_cloudsc_model()
    baseline = annotate_baseline(program, parallel_blocks=True)
    optimized, _ = daisy_optimize(program, parallel_blocks=True, session=session)
    fortran_runtime = session.evaluate(baseline, parameters, threads=threads)
    daisy_runtime = session.evaluate(optimized, parameters, threads=threads)
    return {
        "fortran": fortran_runtime,
        "c": fortran_runtime * C_CODEGEN_FACTOR,
        "dace": fortran_runtime * DACE_CODEGEN_FACTOR,
        "daisy": daisy_runtime,
    }


def run_strong_scaling(settings: Optional[ExperimentSettings] = None,
                       threads: Sequence[int] = STRONG_SCALING_THREADS
                       ) -> List[Dict[str, object]]:
    """Figure 12a: fixed problem size, increasing thread count."""
    settings = settings or ExperimentSettings()
    session = settings.session(PIPELINE)
    configuration = CloudscConfiguration(nproma=128, nblocks=512)
    rows: List[Dict[str, object]] = []
    for count in threads:
        runtimes = _runtimes_for(session, configuration, count)
        for version in VERSIONS:
            rows.append({
                "threads": count,
                "version": version,
                "runtime_s": runtimes[version],
                "daisy_speedup_over_fortran":
                    runtimes["fortran"] / runtimes["daisy"] if version == "daisy" else None,
            })
    return rows


def run_weak_scaling(settings: Optional[ExperimentSettings] = None,
                     points: Sequence[Tuple[int, int]] = WEAK_SCALING_POINTS
                     ) -> List[Dict[str, object]]:
    """Figure 12b: workload grows proportionally with the thread count."""
    settings = settings or ExperimentSettings()
    session = settings.session(PIPELINE)
    rows: List[Dict[str, object]] = []
    for columns, threads in points:
        nblocks = max(1, columns // 128)
        configuration = CloudscConfiguration(nproma=128, nblocks=nblocks)
        runtimes = _runtimes_for(session, configuration, threads)
        for version in VERSIONS:
            rows.append({
                "workload": columns,
                "threads": threads,
                "version": version,
                "runtime_s": runtimes[version],
                "daisy_speedup_over_fortran":
                    runtimes["fortran"] / runtimes["daisy"] if version == "daisy" else None,
            })
    return rows


def format_strong(rows: List[Dict[str, object]]) -> str:
    return format_table(rows, ["threads", "version", "runtime_s",
                               "daisy_speedup_over_fortran"])


def format_weak(rows: List[Dict[str, object]]) -> str:
    return format_table(rows, ["workload", "threads", "version", "runtime_s",
                               "daisy_speedup_over_fortran"])
