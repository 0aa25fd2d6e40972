"""Table 1: the cloud-erosion loop nest before and after normalization.

The table reports, for the erosion loop nest of Figure 10 at NPROMA=128:

* the runtime of a single iteration (one vertical level),
* the runtime of KLEV iterations (a full vertical sweep),
* the absolute number of loads and evictions on the L1 cache.

Runtimes come from the analytical cost model under the repeated-measurement
(warm-cache) protocol; L1 statistics come from the cache simulator fed with
the exact address trace of one kernel execution.  Both are served by the
session facade (``evaluate`` and ``cache_report``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..api import build_erosion_kernel
from .cloudsc_pipeline import PIPELINE, annotate_baseline, daisy_optimize
from .common import ExperimentSettings, format_table

#: Configuration of Section 5.1: NPROMA=128, KLEV vertical levels.
NPROMA = 128
KLEV = 137


def run(settings: Optional[ExperimentSettings] = None) -> List[Dict[str, object]]:
    settings = settings or ExperimentSettings()
    parameters = {"NPROMA": NPROMA}
    session = settings.session(PIPELINE)

    kernel = build_erosion_kernel()
    original = annotate_baseline(kernel)
    optimized, pipeline_info = daisy_optimize(kernel, session=session)

    rows: List[Dict[str, object]] = []
    for name, program in (("original", original), ("optimized", optimized)):
        single = session.evaluate(program, parameters, threads=1,
                                  assume_warm_caches=True)
        sweep = single * KLEV
        report = session.cache_report(program, parameters)
        rows.append({
            "version": name,
            "single_iteration_ms": single * 1e3,
            "klev_iterations_ms": sweep * 1e3,
            "l1_loads": report.l1_loads,
            "l1_evicts": report.l1_evictions,
        })
    rows.append({"version": "pipeline", **pipeline_info})
    return rows


def format_results(rows: List[Dict[str, object]]) -> str:
    table_rows = [row for row in rows if row.get("version") in ("original", "optimized")]
    return format_table(table_rows, ["version", "single_iteration_ms",
                                     "klev_iterations_ms", "l1_loads", "l1_evicts"])
