"""The paper's figures, pinned.

``tests/data/paper_figures.json`` holds the summary rows of Figures 1, 6, 7,
9, 11 and 12, Table 1 and the headline summary at the paper's settings
(``ExperimentSettings()``), one flat ``"figure row column": value`` entry
each, so a change to the cost model, the schedulers or normalization shows
which figures it moved and by how much.  Figure 6 keeps daisy's speedup over
every supported baseline per benchmark and variant: a value below 1 is a
benchmark where daisy loses.  Regenerate the file only for an intended
behaviour change, and list every row that moved, old -> new:
``PYTHONPATH=src:tests python -c "import test_paper_figures;
test_paper_figures.record_figures()"``.
"""

import json
import os

import pytest

from repro.experiments import (ExperimentSettings, figure1, figure6, figure7,
                               figure9, figure11, figure12, summary, table1)
from repro.experiments.common import geometric_mean

FIGURES_PATH = os.path.join(os.path.dirname(__file__), "data",
                            "paper_figures.json")


def _figure1(settings):
    rows = figure1.run(settings)
    return {f"figure1 {name} spread": max(
                row["relative_to_best_order"] for row in rows
                if row["scheduler"] == name)
            for name in figure1.SCHEDULERS}


def _figure6(settings):
    rows = figure6.run(settings)
    pins = {f"figure6 {row['scheduler']} {column}": value
            for row in figure6.robustness_summary(rows)
            for column, value in row.items() if column != "scheduler"}
    daisy = {(row["benchmark"], row["variant"]): row["runtime_s"]
             for row in rows if row["scheduler"] == "daisy"}
    for row in rows:
        if row["scheduler"] != "daisy" and not row["unsupported"]:
            pins[f"figure6 {row['benchmark']}:{row['variant']} daisy vs "
                 f"{row['scheduler']}"] = (
                row["runtime_s"] / daisy[row["benchmark"], row["variant"]])
    return pins


def _figure7(settings):
    rows = figure7.run(settings)
    return {f"figure7 {configuration} {variant} geomean": geometric_mean(
                row["normalized_runtime"] for row in rows
                if row["configuration"] == configuration
                and row["variant"] == variant)
            for configuration in figure7.CONFIGURATIONS
            for variant in ("A", "B")}


def _figure9(settings):
    return {f"figure9 {row['framework']} geomean vs daisy":
                row["geo_mean_vs_daisy"]
            for row in figure9.framework_summary(figure9.run(settings))}


def _figure11(settings):
    return {f"figure11 {row['version']} normalized": row["normalized_runtime"]
            for row in figure11.run(settings) if row["version"] != "pipeline"}


def _figure12(settings):
    pins = {f"figure12 strong {row['threads']} threads daisy speedup":
                row["daisy_speedup_over_fortran"]
            for row in figure12.run_strong_scaling(settings)
            if row["version"] == "daisy"}
    pins.update({f"figure12 weak {row['workload']}/{row['threads']} "
                 "daisy speedup": row["daisy_speedup_over_fortran"]
                 for row in figure12.run_weak_scaling(settings)
                 if row["version"] == "daisy"})
    return pins


def _table1(settings):
    return {f"table1 {row['version']} {column}": value
            for row in table1.run(settings)
            if row["version"] != "pipeline"
            for column, value in row.items() if column != "version"}


def _summary(settings):
    return {f"summary {row['comparison']}": row["geo_mean_speedup"]
            for row in summary.run(settings)}


def figure_pins():
    """Every pinned figure row at the paper's settings."""
    settings = ExperimentSettings()
    pins = {}
    for figure in (_figure1, _figure6, _figure7, _figure9, _figure11,
                   _figure12, _table1, _summary):
        pins.update(figure(settings))
    return pins


def record_figures():
    with open(FIGURES_PATH, "w", encoding="utf-8") as handle:
        json.dump(figure_pins(), handle, indent=1, sort_keys=True)
        handle.write("\n")


def test_paper_figures_match_pins():
    with open(FIGURES_PATH, encoding="utf-8") as handle:
        pinned = json.load(handle)
    assert figure_pins() == pytest.approx(pinned, rel=1e-12)
