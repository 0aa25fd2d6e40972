"""Tests for the benchmark workloads: registry completeness and semantic
equivalence of the A, B, NPBench and normalized variants."""

import numpy as np
import pytest

from repro.interp import run_program
from repro.normalization import normalize
from repro.workloads import (all_benchmarks, benchmark, benchmark_names,
                             benchmark_sizes, polybench_benchmarks)

EXPECTED_POLYBENCH = {
    "gemm", "2mm", "3mm", "syrk", "syr2k", "atax", "bicg", "mvt", "gemver",
    "gesummv", "correlation", "covariance", "fdtd-2d", "jacobi-2d", "heat-3d",
}
EXPECTED_FEM = {"fem-mass", "fem-stiffness", "fem-rhs"}
EXPECTED_BENCHMARKS = EXPECTED_POLYBENCH | EXPECTED_FEM


def _inputs_for(spec, program, params, seed=7):
    """Shared, deterministic inputs for all variants of one benchmark."""
    rng = np.random.default_rng(seed)
    inputs = {}
    for name, arr in program.arrays.items():
        if arr.transient:
            continue
        if name in spec.scalars:
            value = spec.scalars[name]
            if name == "float_n":
                value = float(params["N"])
            inputs[name] = np.array(value)
        else:
            inputs[name] = rng.uniform(0.5, 1.5, size=arr.concrete_shape(params))
    return inputs


class TestRegistry:
    def test_benchmarks_registered(self):
        assert set(benchmark_names()) == EXPECTED_BENCHMARKS
        assert len(all_benchmarks()) == 18

    def test_polybench_subset_stays_at_fifteen(self):
        specs = polybench_benchmarks()
        assert {spec.name for spec in specs} == EXPECTED_POLYBENCH
        assert len(specs) == 15

    def test_fem_benchmarks_use_fem_category(self):
        for name in sorted(EXPECTED_FEM):
            assert benchmark(name).category == "fem"

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            benchmark("nosuch")

    def test_sizes_exist_for_all_classes(self):
        for spec in all_benchmarks():
            for size in ("mini", "small", "large"):
                bindings = spec.sizes(size)
                assert bindings and all(v > 0 for v in bindings.values())

    def test_large_sizes_match_paper_for_gemm(self):
        assert benchmark_sizes("gemm", "large") == {"NI": 1000, "NJ": 1100, "NK": 1200}

    def test_variants_build_and_validate(self):
        from repro.ir import validate_program
        for spec in all_benchmarks():
            for which in ("a", "b", "npbench"):
                program = spec.variant(which)
                assert validate_program(program) == []

    def test_unknown_variant_rejected(self):
        with pytest.raises(KeyError):
            benchmark("gemm").variant("c")


@pytest.mark.parametrize("name", sorted(EXPECTED_BENCHMARKS))
class TestVariantEquivalence:
    """A, B, NPBench and normalize(A) must compute the same outputs."""

    def test_all_variants_agree(self, name):
        spec = benchmark(name)
        params = spec.sizes("mini")
        reference_program = spec.variant("a")
        inputs = _inputs_for(spec, reference_program, params)
        reference = run_program(reference_program, params, inputs)

        for which in ("b", "npbench"):
            other = run_program(spec.variant(which), params, inputs)
            for output in spec.outputs:
                assert np.allclose(reference[output], other[output], rtol=1e-6), \
                    f"{name}: variant {which} diverges on {output}"

        normalized, report = normalize(spec.variant("a"))
        assert report.counters()["validation_errors"] == 0
        normalized_result = run_program(normalized, params, inputs)
        for output in spec.outputs:
            assert np.allclose(reference[output], normalized_result[output], rtol=1e-9), \
                f"{name}: normalization changes {output}"
