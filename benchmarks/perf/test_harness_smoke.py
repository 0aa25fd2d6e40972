"""Keeps the harness itself from rotting: runs it in ``--smoke`` mode and
checks that every metric BENCHMARK.json and spec.json name is reported,
finite, and carries its unit.

Not part of the tier-1 suite (pytest only collects ``tests/``); run with
``python -m pytest benchmarks/perf/test_harness_smoke.py``.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


SPEC = _load(os.path.join(HERE, "spec.json"))
BENCHMARK = _load(os.path.join(ROOT, "BENCHMARK.json"))


@pytest.fixture(scope="module")
def smoke_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    done = subprocess.run([sys.executable, RUN, "--smoke", "--out", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return str(out), _load(out)


def test_benchmark_json_matches_spec():
    assert BENCHMARK["paths"] == ["benchmarks/perf"]
    module_spec = importlib.util.spec_from_file_location("perf_run", RUN)
    run = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(run)
    assert run.DEFAULT_SECONDS == BENCHMARK["run_seconds"]
    assert ([entry["name"] for entry in BENCHMARK["workloads"]]
            == [entry["name"] for entry in SPEC["workloads"]])
    gated = [entry for entry in SPEC["end_to_end"] if entry["driver_gated"]]
    assert ([(e["name"], e["unit"], e["better"], e["bound"])
             for e in BENCHMARK["end_to_end"]]
            == [(e["name"], e["unit"], e["better"], e["bound"])
                for e in gated])
    assert ([(e["name"], e["unit"], e["better"])
             for e in BENCHMARK["per_layer"]]
            == [(e["name"], e["unit"], e["better"])
                for e in SPEC["per_layer"]])
    # Every end-to-end metric the driver does not gate is still reported,
    # as a per-layer metric.
    layer_names = {entry["name"] for entry in SPEC["per_layer"]}
    assert {entry["name"] for entry in SPEC["end_to_end"]
            if not entry["driver_gated"]} <= layer_names


def test_smoke_run_reports_every_metric(smoke_result):
    _, result = smoke_result
    assert result["smoke"] is True
    assert result["deterministic"] is True
    for key in ("git_sha", "git_dirty", "python", "platform", "nproc",
                "load_average_1m", "seed", "harness_version"):
        assert key in result["environment"]
    for workload in SPEC["workloads"]:
        entry = result["workloads"][workload["name"]]
        assert entry["failed"] == 0 and entry["attempted"] >= 1
        assert len(entry["exact"]["recipe_digest"]) == 64
        for kind in ("end_to_end", "per_layer"):
            for definition in BENCHMARK[kind]:
                metric = entry[kind][definition["name"]]
                assert metric["unit"] == definition["unit"]
                assert isinstance(metric["value"], (int, float))
                assert math.isfinite(metric["value"]), definition["name"]


def test_compare_refuses_smoke_results(smoke_result):
    path, _ = smoke_result
    done = subprocess.run([sys.executable, RUN, "compare", path, path],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "smoke" in done.stderr


def test_one_workload_prints_the_contract_line():
    done = subprocess.run(
        [sys.executable, RUN, "--workload", "cold_search", "--seed", "3",
         "--seconds", "1", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0
    assert sorted(last["metrics"]) == sorted(
        entry["name"] for entry in BENCHMARK["end_to_end"])
