"""Property and regression tests of the expression-rewrite pass family.

Covers the tentpole's guarantees:

* every rewrite pipeline is idempotent (a projection — running it on its own
  output is a no-op),
* rewrites preserve semantics against the reference interpreter over a wide
  sample of expression-heavy fuzz programs (under the float tolerance the
  re-associating pipelines are registered for),
* the flops each pipeline leaves on the FEM kernels and on eight
  expression-heavy fuzz programs are pinned exactly, and each pipeline's
  outputs agree with the program as written,
* each rewrite pipeline keys the normalization cache distinctly, on the
  memory and the SQLite backend,
* the fuzz oracle compares ``bit_exact=False`` pipelines under tolerance —
  and a deliberately re-associated program demonstrably fails a forced
  bit-exact comparison while passing the tolerance mode,
* the rewrite counters (hoisted/cse_hits/flops_saved) survive
  :class:`~repro.passes.PassStats` aggregation and surface end-to-end in
  ``/v1/report`` over HTTP.
"""

import numpy as np
import pytest
from helpers import fast_session

from repro.analysis import program_flops
from repro.api import (MemoryCacheBackend, NormalizationCache,
                       NormalizationOptions, ScheduleRequest,
                       SQLiteCacheBackend)
from repro.fuzz.generator import GeneratedProgram, generate_program
from repro.fuzz.oracle import Oracle, OracleConfig, _compare
from repro.interp import run_program
from repro.ir import ProgramBuilder
from repro.normalization import normalize
from repro.passes import (PassResult, PassStats, pipeline_bit_exact,
                          program_fingerprint)
from repro.serving import ServingClient, ServingServer
from repro.workloads import benchmark

REWRITE_PIPELINES = ("rewrite", "rewrite-licm-only", "rewrite-cse-only",
                     "rewrite-expand", "a-priori+rewrite")

FEM_WORKLOADS = ("fem-mass", "fem-stiffness", "fem-rhs")


def _fem_program(name, size="mini"):
    spec = benchmark(name)
    return spec.variant("a"), spec.sizes(size), dict(spec.scalars)


def _inputs_for(program, parameters, scalars=(), seed=5):
    rng = np.random.default_rng(seed)
    inputs = {}
    for name, arr in program.arrays.items():
        if arr.transient:
            continue
        if name in scalars:
            inputs[name] = np.array(scalars[name])
        else:
            inputs[name] = rng.uniform(0.5, 1.5,
                                       size=arr.concrete_shape(parameters))
    return inputs


def _assert_outputs_agree(program, parameters, pipeline, scalars=(), label=""):
    inputs = _inputs_for(program, parameters, scalars)
    reference = run_program(program, parameters, inputs)
    rewritten, _ = normalize(program, NormalizationOptions(pipeline))
    result = run_program(rewritten, parameters, inputs)
    for output, arr in program.arrays.items():
        if not arr.transient:
            assert np.allclose(reference[output], result[output],
                               rtol=1e-6, atol=1e-6, equal_nan=True), \
                f"{pipeline} diverges on {output} ({label})"


class TestIdempotence:
    """Every rewrite pipeline is a projection: a second run is a no-op."""

    @pytest.mark.parametrize("pipeline", REWRITE_PIPELINES)
    def test_fem_workloads(self, pipeline):
        for name in FEM_WORKLOADS:
            program, _parameters, _ = _fem_program(name)
            options = NormalizationOptions(pipeline=pipeline)
            once, _ = normalize(program, options)
            twice, report = normalize(once, options)
            assert program_fingerprint(once) == program_fingerprint(twice), \
                f"{pipeline} not idempotent on {name}"
            assert not report.changed

    @pytest.mark.parametrize("pipeline", REWRITE_PIPELINES)
    def test_expression_heavy_fuzz_programs(self, pipeline):
        for seed in range(8):
            generated = generate_program(seed, "expression-heavy")
            options = NormalizationOptions(pipeline=pipeline)
            once, _ = normalize(generated.program, options)
            twice, _ = normalize(once, options)
            assert program_fingerprint(once) == program_fingerprint(twice), \
                f"{pipeline} not idempotent on expression-heavy seed {seed}"


class TestSemanticPreservation:
    """Rewrites agree with the reference interpreter over >= 50 fuzz
    programs (tolerance mode: the pipelines reassociate by design)."""

    SEEDS = range(50)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rewrite_preserves_outputs(self, seed):
        generated = generate_program(seed, "expression-heavy")
        # Rotate through the family so every pipeline sees many programs
        # without interpreting 50 x 5 programs.
        _assert_outputs_agree(generated.program, generated.parameters,
                              REWRITE_PIPELINES[seed % len(REWRITE_PIPELINES)],
                              label=f"seed {seed}")


#: The ablation's pipelines, in the column order of :data:`FLOPS`.
ABLATION = ("a-priori", "rewrite-licm-only", "rewrite-cse-only", "rewrite",
            "a-priori+rewrite")

#: ``program_flops`` before normalization, and after each :data:`ABLATION`
#: pipeline: the FEM kernels at ``small`` sizes, the expression-heavy fuzz
#: programs at their own parameters.  Intrinsic calls count their weights
#: in the one intrinsic table (``sqrt`` 6, ``tanh`` 12, ...).
FLOPS = {
    "fem-mass": (165888, (165888, 83200, 165888, 83200, 83200)),
    "fem-stiffness": (435456, (435456, 331776, 435456, 331776, 331776)),
    "fem-rhs": (44928, (44928, 16960, 44928, 16384, 16384)),
    "fuzz:expression-heavy-0": (1956, (1956, 1471, 1176, 554, 549)),
    "fuzz:expression-heavy-1": (989, (989, 758, 914, 705, 705)),
    "fuzz:expression-heavy-2": (1014, (1014, 654, 510, 186, 186)),
    "fuzz:expression-heavy-3": (1161, (1161, 1084, 1115, 988, 988)),
    "fuzz:expression-heavy-4": (2211, (2211, 608, 1483, 418, 403)),
    "fuzz:expression-heavy-5": (1911, (2127, 1911, 954, 789, 849)),
    "fuzz:expression-heavy-6": (2775, (2775, 809, 1300, 723, 183)),
    "fuzz:expression-heavy-7": (1242, (1242, 1242, 722, 542, 374)),
}


def _ablation_program(workload, size):
    """``(program, parameters, scalars)`` of one :data:`FLOPS` row."""
    if workload in FEM_WORKLOADS:
        return _fem_program(workload, size)
    generated = generate_program(int(workload.rsplit("-", 1)[1]),
                                 "expression-heavy")
    return generated.program, generated.parameters, {}


class TestRewriteAblation:
    """The flop reduction of each rewrite pipeline is deterministic, so it is
    pinned exactly; outputs agree under the pipelines' float tolerance."""

    @pytest.mark.parametrize("workload", sorted(FLOPS))
    def test_flops_are_pinned(self, workload):
        program, parameters, _ = _ablation_program(workload, "small")
        before, after = FLOPS[workload]
        assert program_flops(program, parameters) == before
        assert tuple(
            program_flops(normalize(program, NormalizationOptions(pipeline))[0],
                          parameters)
            for pipeline in ABLATION) == after

    @pytest.mark.parametrize("pipeline", ABLATION)
    @pytest.mark.parametrize("workload", sorted(FLOPS))
    def test_outputs_agree(self, workload, pipeline):
        program, parameters, scalars = _ablation_program(workload, "mini")
        _assert_outputs_agree(program, parameters, pipeline, scalars, workload)


class TestCacheKeys:
    """Each rewrite pipeline keys the normalization cache distinctly."""

    def _distinct_entries(self, cache):
        program, _, _ = _fem_program("fem-rhs")
        pipelines = ("a-priori",) + REWRITE_PIPELINES
        hashes = {}
        for pipeline in pipelines:
            entry = cache.normalized(program,
                                     NormalizationOptions(pipeline))
            assert not entry.hit, f"{pipeline} served from a foreign entry"
            hashes[pipeline] = entry.input_hash
        assert len(set(hashes.values())) == len(pipelines), hashes
        # Repeats hit their own entries.
        for pipeline in pipelines:
            assert cache.normalized(
                program, NormalizationOptions(pipeline)).hit
        assert cache.stats.normalization_misses == len(pipelines)

    def test_memory_backend(self):
        self._distinct_entries(NormalizationCache(backend=MemoryCacheBackend()))

    def test_sqlite_backend(self, tmp_path):
        cache = NormalizationCache(
            backend=SQLiteCacheBackend(str(tmp_path / "cache.sqlite")))
        try:
            self._distinct_entries(cache)
        finally:
            cache.close()

    def test_sqlite_rewrite_entry_survives_restart(self, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        program, _, _ = _fem_program("fem-rhs")
        cache = NormalizationCache(backend=SQLiteCacheBackend(path))
        cache.normalized(program, NormalizationOptions("rewrite"))
        cache.close()
        cache = NormalizationCache(backend=SQLiteCacheBackend(path))
        try:
            assert cache.normalized(
                program, NormalizationOptions("rewrite")).hit
            assert not cache.normalized(
                program, NormalizationOptions("rewrite-licm-only")).hit
        finally:
            cache.close()


def _reassociation_sensitive_program():
    """``y[i] = x[i]*u[i] + x[i]*v[i]``: factorization rewrites it to
    ``x[i]*(u[i]+v[i])``, which rounds differently."""
    b = ProgramBuilder("reassoc", parameters=["N"])
    b.add_array("x", ("N",))
    b.add_array("u", ("N",))
    b.add_array("v", ("N",))
    b.add_array("y", ("N",))
    with b.loop("i", 0, "N"):
        b.assign(("y", "i"),
                 b.read("x", "i") * b.read("u", "i")
                 + b.read("x", "i") * b.read("v", "i"))
    return b.finish()


class TestOracleToleranceMode:
    """Satellite: per-pipeline ``bit_exact`` drives the oracle comparison."""

    def test_bit_exact_flags(self):
        assert pipeline_bit_exact("a-priori")
        assert pipeline_bit_exact("no-fission")
        assert pipeline_bit_exact("rewrite-licm-only")
        assert pipeline_bit_exact("rewrite-cse-only")
        assert not pipeline_bit_exact("rewrite")
        assert not pipeline_bit_exact("rewrite-expand")
        assert not pipeline_bit_exact("a-priori+rewrite")

    def test_effective_tolerance_resolution(self):
        config = OracleConfig()
        assert config.effective_tolerance("a-priori") == 0.0
        assert config.effective_tolerance("rewrite") == \
            config.rewrite_tolerance
        # An explicit tolerance overrides the per-pipeline flag everywhere.
        forced = OracleConfig(tolerance=1e-3)
        assert forced.effective_tolerance("a-priori") == 1e-3
        assert forced.effective_tolerance("rewrite") == 1e-3

    def test_reassociated_program_rounds_differently(self):
        program = _reassociation_sensitive_program()
        parameters = {"N": 64}
        inputs = _inputs_for(program, parameters)
        reference = run_program(program, parameters, inputs)
        rewritten, _ = normalize(program, NormalizationOptions("rewrite"))
        result = run_program(rewritten, parameters, inputs)
        # Not bitwise equal -- but within the registered tolerance.
        assert not np.array_equal(reference["y"], result["y"])
        assert np.allclose(reference["y"], result["y"], rtol=1e-6, atol=1e-6)

    def test_oracle_passes_under_tolerance_fails_bit_exact(self):
        generated = GeneratedProgram(
            program=_reassociation_sensitive_program(),
            parameters={"N": 64}, seed=0, size_class="handmade")
        tolerant = Oracle(OracleConfig(pipelines=["rewrite"], schedulers=[]))
        verdict = tolerant.check(generated)
        assert verdict.outcome == "pass", verdict.divergences

        strict = Oracle(OracleConfig(pipelines=["rewrite"], schedulers=[],
                                     rewrite_tolerance=0.0))
        verdict = strict.check(generated)
        assert verdict.outcome == "divergence"
        assert any(d.spec.stage == "normalize" and d.spec.kind == "mismatch"
                   for d in verdict.divergences)

    def test_bit_exact_pipelines_still_compared_exactly(self):
        generated = GeneratedProgram(
            program=_reassociation_sensitive_program(),
            parameters={"N": 64}, seed=0, size_class="handmade")
        oracle = Oracle(OracleConfig(pipelines=["a-priori"], schedulers=[]))
        assert oracle.config.effective_tolerance("a-priori") == 0.0
        assert oracle.check(generated).outcome == "pass"

    def test_tolerance_mode_ignores_saturated_reference_entries(self):
        # An iterated polynomial that overflows can saturate differently
        # under re-association (nan via inf-inf vs a plain -inf).  Where
        # the reference itself is non-finite the value carries no
        # information, so tolerance mode skips it; bit-exact mode and
        # finite-position mismatches are still flagged.
        reference = {"A": np.array([1.0, np.nan, np.inf])}
        saturated = {"A": np.array([1.0, -np.inf, np.nan])}
        assert _compare(reference, saturated, ["A"], tolerance=1e-6) == []
        assert _compare(reference, saturated, ["A"], tolerance=0.0)

        # A non-finite value where the reference is finite is a real bug.
        broken = {"A": np.array([np.inf, np.nan, np.inf])}
        mismatches = _compare(reference, broken, ["A"], tolerance=1e-6)
        assert mismatches and mismatches[0]["first_index"] == [0]


class TestPassStatsCounters:
    """Pass counters survive aggregation into the report."""

    def test_pass_stats_sums_counters(self):
        stats = PassStats()
        stats.add([PassResult("licm", changed=True,
                              counters={"hoisted": 2, "flops_saved": 12.0})])
        stats.add([PassResult("licm", changed=True,
                              counters={"hoisted": 1, "hoisted_uses": 4})])
        entry = stats.to_dict()["licm"]
        assert entry["runs"] == 2
        assert entry["counters"] == {"hoisted": 3, "flops_saved": 12.0,
                                     "hoisted_uses": 4}

    def test_to_dict_snapshot_is_isolated(self):
        stats = PassStats()
        stats.add([PassResult("cse", changed=True, counters={"cse_hits": 1})])
        snapshot = stats.to_dict()
        snapshot["cse"]["counters"]["cse_hits"] = 99
        assert stats.to_dict()["cse"]["counters"]["cse_hits"] == 1

    def test_session_report_carries_rewrite_counters(self):
        session = fast_session(pipeline="rewrite")
        for name in ("fem-mass", "fem-rhs"):
            program, _, _ = _fem_program(name)
            session.normalize(program)
        passes = session.report().normalization_passes
        assert passes["licm"]["counters"]["hoisted"] >= 2
        assert passes["licm"]["counters"]["flops_saved"] > 0
        assert "pre-evaluate" in passes and "factorize" in passes


class TestHttpReportRewriteCounters:
    """Satellite fix: counters surface over HTTP, single- and multi-process."""

    def test_v1_report_exposes_rewrite_counters(self):
        session = fast_session()
        with ServingServer(session) as server:
            client = ServingClient(server.address)
            status, _ = client.request(
                "POST", "/v1/schedule",
                ScheduleRequest(program="fem-rhs:a",
                                pipeline="rewrite").to_dict())
            assert status == 200
            payload = client.report()
            passes = payload["normalization_passes"]
            assert passes["licm"]["counters"]["hoisted"] >= 1
            assert passes["licm"]["counters"]["flops_saved"] > 0
            assert passes["cse"]["runs"] >= 1
        session.close()
