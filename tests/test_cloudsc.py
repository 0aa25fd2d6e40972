"""Tests for the CLOUDSC proxy workload and its optimization pipeline."""

import contextlib

import numpy as np
import pytest

from repro.api import Session
from repro.experiments.cloudsc_pipeline import annotate_baseline, daisy_optimize
from repro.interp import run_program
from repro.normalization import normalize
from repro.perf import CacheHierarchy, CostModel, TraceGenerator
from repro.workloads.cloudsc import (DEFAULT_CONFIGURATION,
                                     WEAK_SCALING_POINTS, CloudscConfiguration,
                                     build_cloudsc_model, build_erosion_kernel)

EROSION_OUTPUTS = ("ZTP1", "ZQSMIX")
MODEL_OUTPUTS = ("ZTP1", "ZQSMIX", "ZQX", "ZLIQ", "ZRAIN")


def _inputs(program, params, seed=11):
    rng = np.random.default_rng(seed)
    inputs = {}
    for name, arr in program.arrays.items():
        if arr.transient:
            continue
        if name == "ZTP1":
            inputs[name] = rng.uniform(255.0, 300.0, size=arr.concrete_shape(params))
        else:
            inputs[name] = rng.uniform(0.5, 1.5, size=arr.concrete_shape(params))
    return inputs


class TestConfiguration:
    def test_default_matches_paper(self):
        assert DEFAULT_CONFIGURATION.nproma == 128
        assert DEFAULT_CONFIGURATION.nblocks == 512
        assert DEFAULT_CONFIGURATION.num_columns == 128 * 512

    def test_weak_scaling_points(self):
        assert WEAK_SCALING_POINTS[0] == (65536, 1)
        assert WEAK_SCALING_POINTS[-1] == (524288, 8)

    def test_parameters_mapping(self):
        cfg = CloudscConfiguration(nproma=32, nblocks=4, klev=10)
        assert cfg.parameters() == {"NPROMA": 32, "NBLOCKS": 4, "KLEV": 10}


class TestErosionKernel:
    def test_structure(self):
        kernel = build_erosion_kernel()
        assert len(kernel.body) == 1
        assert len(list(kernel.iter_computations())) == 8

    def test_normalization_fissions_and_expands(self):
        kernel = build_erosion_kernel()
        normalized, report = normalize(kernel)
        assert report.counters()["scalars_expanded"] == 6
        assert len(normalized.body) > 1

    def test_daisy_pipeline_preserves_semantics(self):
        kernel = build_erosion_kernel()
        optimized, info = daisy_optimize(kernel)
        assert info["scalars_expanded"] == 6
        assert info["arrays_contracted"] >= 1
        params = {"NPROMA": 16}
        inputs = _inputs(kernel, params)
        reference = run_program(kernel, params, inputs)
        result = run_program(optimized, params, inputs)
        for output in EROSION_OUTPUTS:
            assert np.allclose(reference[output], result[output])

    def test_optimized_kernel_is_faster_and_lighter_on_l1(self):
        kernel = build_erosion_kernel()
        params = {"NPROMA": 128}
        original = annotate_baseline(kernel)
        optimized, _ = daisy_optimize(kernel)
        model = CostModel(threads=1)
        t_original = model.estimate_seconds(original, params, assume_warm_caches=True)
        t_optimized = model.estimate_seconds(optimized, params, assume_warm_caches=True)
        assert t_optimized < t_original

        report_original = CacheHierarchy().run_trace(
            TraceGenerator(original, params).trace())
        report_optimized = CacheHierarchy().run_trace(
            TraceGenerator(optimized, params).trace())
        assert report_optimized.l1_loads < report_original.l1_loads
        assert report_optimized.l1_evictions <= report_original.l1_evictions


class TestFullModel:
    def test_structure(self):
        model = build_cloudsc_model()
        top = model.body[0]
        assert top.iterator == "JKGLO"
        vertical = top.body[0]
        assert vertical.iterator == "JK"
        jl_loops = [child for child in vertical.body if child.iterator == "JL"]
        assert len(jl_loops) >= 5

    def test_baseline_annotation_parallelizes_blocks(self):
        model = build_cloudsc_model()
        annotated = annotate_baseline(model)
        assert annotated.body[0].parallel
        innermost = [loop for loop in annotated.iter_loops()
                     if not any(hasattr(c, "iterator") for c in loop.body)]
        assert all(loop.vectorized for loop in innermost)

    def test_daisy_pipeline_preserves_semantics(self):
        model = build_cloudsc_model()
        optimized, info = daisy_optimize(model)
        assert info["loops_split"] > 0
        params = {"NBLOCKS": 2, "KLEV": 4, "NPROMA": 5}
        inputs = _inputs(model, params)
        reference = run_program(model, params, inputs)
        result = run_program(optimized, params, inputs)
        for output in MODEL_OUTPUTS:
            assert np.allclose(reference[output], result[output])

    def test_daisy_version_not_slower_than_baseline(self):
        model = build_cloudsc_model()
        params = CloudscConfiguration(nproma=128, nblocks=64).parameters()
        baseline = annotate_baseline(model)
        optimized, _ = daisy_optimize(model)
        cost = CostModel(threads=12)
        assert (cost.estimate_seconds(optimized, params)
                <= cost.estimate_seconds(baseline, params) * 1.05)

    def test_block_loop_scales_with_threads(self):
        model = build_cloudsc_model()
        params = CloudscConfiguration(nproma=128, nblocks=64).parameters()
        baseline = annotate_baseline(model)
        sequential = CostModel(threads=1).estimate_seconds(baseline, params)
        parallel = CostModel(threads=12).estimate_seconds(baseline, params)
        assert parallel < sequential / 2

    @pytest.mark.parametrize("threads", [1, 12])
    def test_daisy_runs_the_block_loop_in_parallel(self, threads):
        """After scalar expansion each block iteration privatizes its
        scratch arrays, which no other nest reads: daisy marks a ``JKGLO``
        loop parallel and the model runs ~10x faster at 12 threads."""
        model = build_cloudsc_model()
        with contextlib.closing(Session(threads=threads,
                                        pipeline="a-priori-keep-names")) as session:
            response = session.schedule(model, DEFAULT_CONFIGURATION.parameters(),
                                        scheduler="daisy")
        marked = [loop.iterator for loop in response.program.iter_loops()
                  if loop.parallel]
        if threads == 1:
            assert response.runtime_s == pytest.approx(0.545564, rel=1e-5)
        else:
            assert response.runtime_s <= 0.06
            assert "JKGLO" in marked
