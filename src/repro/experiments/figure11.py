"""Figure 11: CLOUDSC full-model runtime for sequential execution.

The Fortran, C, DaCe, and daisy versions of the (proxy) model are compared
for a single-threaded run at NPROMA=128, NBLOCKS=512.  Runtimes are
normalized by the Fortran version, so values below 1.0 mean faster than the
hand-tuned Fortran code.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..api import CloudscConfiguration, build_cloudsc_model
from .cloudsc_pipeline import (C_CODEGEN_FACTOR, DACE_CODEGEN_FACTOR,
                               PIPELINE, annotate_baseline,
                               daisy_optimize)
from .common import ExperimentSettings, format_table

VERSIONS = ("fortran", "c", "dace", "daisy")


def run(settings: Optional[ExperimentSettings] = None,
        configuration: Optional[CloudscConfiguration] = None
        ) -> List[Dict[str, object]]:
    settings = settings or ExperimentSettings()
    configuration = configuration or CloudscConfiguration(nproma=128, nblocks=512)
    parameters = configuration.parameters()
    session = settings.session(PIPELINE)

    model_program = build_cloudsc_model()
    baseline = annotate_baseline(model_program, parallel_blocks=False)
    optimized, pipeline_info = daisy_optimize(model_program, parallel_blocks=False,
                                              session=session)

    fortran_runtime = session.evaluate(baseline, parameters, threads=1)
    daisy_runtime = session.evaluate(optimized, parameters, threads=1)

    runtimes = {
        "fortran": fortran_runtime,
        "c": fortran_runtime * C_CODEGEN_FACTOR,
        "dace": fortran_runtime * DACE_CODEGEN_FACTOR,
        "daisy": daisy_runtime,
    }

    rows: List[Dict[str, object]] = []
    for version in VERSIONS:
        rows.append({
            "version": version,
            "runtime_s": runtimes[version],
            "normalized_runtime": runtimes[version] / fortran_runtime,
        })
    rows.append({"version": "pipeline", **pipeline_info})
    return rows


def format_results(rows: List[Dict[str, object]]) -> str:
    table_rows = [row for row in rows if row.get("version") in VERSIONS]
    return format_table(table_rows, ["version", "runtime_s", "normalized_runtime"])
