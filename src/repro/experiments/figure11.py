"""Figure 11: CLOUDSC full-model runtime for sequential execution.

The Fortran, C, DaCe, and daisy versions of the (proxy) model are compared
for a single-threaded run at NPROMA=128, NBLOCKS=512.  Runtimes are
normalized by the Fortran version, so values below 1.0 mean faster than the
hand-tuned Fortran code.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..api import CloudscConfiguration
from .cloudsc_pipeline import PIPELINE, VERSIONS, model_runtimes
from .common import ExperimentSettings, format_table


def run(settings: Optional[ExperimentSettings] = None,
        configuration: Optional[CloudscConfiguration] = None
        ) -> List[Dict[str, object]]:
    settings = settings or ExperimentSettings()
    configuration = configuration or CloudscConfiguration(nproma=128, nblocks=512)
    (runtimes,), pipeline_info = model_runtimes(settings.session(PIPELINE),
                                                [(configuration, 1)])
    rows: List[Dict[str, object]] = [
        {"version": version, "runtime_s": runtimes[version],
         "normalized_runtime": runtimes[version] / runtimes["fortran"]}
        for version in VERSIONS]
    rows.append({"version": "pipeline", **pipeline_info})
    return rows


def format_results(rows: List[Dict[str, object]]) -> str:
    table_rows = [row for row in rows if row.get("version") in VERSIONS]
    return format_table(table_rows, ["version", "runtime_s", "normalized_runtime"])
