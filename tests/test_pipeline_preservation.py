"""What every registered normalization pipeline keeps.

* outputs: each pipeline's normal form computes, bit for bit, what the
  program as written computes, over 50 ``small`` fuzz programs and the three
  variants of each FEM kernel (``np.array_equal``, the comparison the fuzz
  oracle makes for every pipeline);
* work: ``program_flops`` of every registry variant is the same before and
  after each pipeline, since normalization reorders, splits, expands and
  renames but adds or removes no arithmetic;
* idempotence: a second run of any pipeline over a FEM kernel or a fuzz
  program is a no-op.
"""

import numpy as np
import pytest

from repro.analysis import program_flops
from repro.api import NormalizationOptions
from repro.fuzz.generator import generate_program
from repro.interp import run_program
from repro.normalization import normalize
from repro.passes import pipeline_names, program_fingerprint
from repro.workloads import benchmark
from repro.workloads.registry import benchmark_names

PIPELINES = tuple(pipeline_names())

FEM_WORKLOADS = ("fem-mass", "fem-stiffness", "fem-rhs")

VARIANTS = ("a", "b", "npbench")

REGISTRY_VARIANTS = tuple(f"{name}:{variant}" for name in benchmark_names()
                          for variant in VARIANTS)


def _inputs(program, parameters, scalars=(), seed=5):
    """Random inputs for every non-transient container; ``scalars`` pins the
    values a registry benchmark initializes its scalars with."""
    rng = np.random.default_rng(seed)
    inputs = {}
    for name, arr in program.arrays.items():
        if arr.transient:
            continue
        if name in scalars:
            inputs[name] = np.array(scalars[name], dtype=arr.dtype)
        else:
            inputs[name] = arr.allocate(parameters, rng=rng)
    return inputs


def _assert_outputs_bit_exact(program, parameters, pipelines, scalars=(),
                              label=""):
    inputs = _inputs(program, parameters, scalars)
    reference = run_program(program, parameters, inputs)
    for pipeline in pipelines:
        normalized, _ = normalize(program, NormalizationOptions(pipeline))
        result = run_program(normalized, parameters, inputs)
        for output, arr in program.arrays.items():
            if not arr.transient:
                assert np.array_equal(reference[output], result[output],
                                      equal_nan=True), \
                    f"{pipeline} diverges on {output} ({label})"


def _assert_idempotent(program, pipeline, label):
    options = NormalizationOptions(pipeline)
    once, _ = normalize(program, options)
    twice, report = normalize(once, options)
    assert program_fingerprint(once) == program_fingerprint(twice), \
        f"{pipeline} not idempotent on {label}"
    assert not report.changed, f"{pipeline} changed {label} twice"


class TestOutputsBitExact:
    """Every pipeline's normal form agrees bitwise with the interpreter's
    run of the program as written."""

    @pytest.mark.parametrize("seed", range(50))
    def test_fuzz_program(self, seed):
        generated = generate_program(seed, "small")
        _assert_outputs_bit_exact(generated.program, generated.parameters,
                                  PIPELINES, label=f"small seed {seed}")

    @pytest.mark.parametrize("pipeline", PIPELINES)
    @pytest.mark.parametrize("workload", FEM_WORKLOADS)
    def test_fem_variants(self, workload, pipeline):
        spec = benchmark(workload)
        for variant in VARIANTS:
            _assert_outputs_bit_exact(spec.variant(variant),
                                      spec.sizes("mini"), (pipeline,),
                                      dict(spec.scalars),
                                      f"{workload}:{variant}")


class TestWorkKept:
    """Normalization moves no arithmetic: the flops of each registry variant
    at ``small`` sizes are the same under every pipeline."""

    @pytest.mark.parametrize("workload", REGISTRY_VARIANTS)
    def test_flops_unchanged(self, workload):
        name, variant = workload.rsplit(":", 1)
        spec = benchmark(name)
        program, parameters = spec.variant(variant), spec.sizes("small")
        before = program_flops(program, parameters)
        assert before > 0
        after = {pipeline: program_flops(
                     normalize(program, NormalizationOptions(pipeline))[0],
                     parameters)
                 for pipeline in PIPELINES}
        assert after == dict.fromkeys(PIPELINES, before)


class TestIdempotence:
    """Every pipeline is a projection: a second run is a no-op."""

    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_fem_workloads(self, pipeline):
        for name in FEM_WORKLOADS:
            for variant in VARIANTS:
                _assert_idempotent(benchmark(name).variant(variant), pipeline,
                                   f"{name}:{variant}")

    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_fuzz_programs(self, pipeline):
        for seed in range(8):
            _assert_idempotent(generate_program(seed, "small").program,
                               pipeline, f"small seed {seed}")
