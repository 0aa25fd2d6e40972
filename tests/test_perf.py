"""Tests for the performance-model substrate: cache simulator, trace
generation, analytical cost model, and the measurement protocol."""

import random

import numpy as np
import pytest

from helpers import build_gemm, build_vector_add
from repro.analysis import expr_flops
from repro.ir import ProgramBuilder
from repro.ir.symbols import (INTRINSICS, Add, Call, Const, FloorDiv, Max, Min,
                              Mod, Mul, Read, Sym)
from repro.normalization import normalize_program
from repro.perf import (CacheHierarchy, CostModel, MachineModel,
                        MeasurementProtocol, TraceGenerator, build_layout,
                        generate_trace)
from repro.perf.machine import DEFAULT_MACHINE, CacheLevel
from repro.transforms import Parallelize, Recipe, ReplaceWithLibraryCall, Tile, Vectorize, apply_recipe

PARAMS = {"NI": 200, "NJ": 220, "NK": 240}


class TestCacheSimulator:
    def _tiny_machine(self):
        return MachineModel(cache_levels=(
            CacheLevel("L1", 4 * 64, 64, 2, 100e9, 4),
            CacheLevel("L2", 64 * 64, 64, 4, 50e9, 12),
        ))

    def test_repeated_access_hits(self):
        hierarchy = CacheHierarchy(self._tiny_machine())
        hierarchy.access(0)
        level = hierarchy.access(0)
        assert level == "L1"
        report = hierarchy.report()
        assert report.level("L1").hits == 1
        assert report.level("L1").misses == 1

    def test_eviction_on_capacity_conflict(self):
        machine = self._tiny_machine()
        hierarchy = CacheHierarchy(machine)
        sets = machine.cache_levels[0].num_sets
        # Access many lines mapping to the same set to force evictions.
        for line in range(4):
            hierarchy.access(line * sets * 64)
        report = hierarchy.report()
        assert report.level("L1").evictions >= 2

    def test_writeback_counted(self):
        machine = self._tiny_machine()
        hierarchy = CacheHierarchy(machine)
        sets = machine.cache_levels[0].num_sets
        hierarchy.access(0, is_write=True)
        for line in range(1, 4):
            hierarchy.access(line * sets * 64)
        assert hierarchy.report().level("L1").writebacks >= 1

    def test_dram_accesses_counted(self):
        hierarchy = CacheHierarchy(self._tiny_machine())
        hierarchy.access(0)
        assert hierarchy.report().dram_accesses == 1

    def test_streaming_trace_hit_rate(self):
        # Sequential 8-byte accesses: 7 of 8 hit within a 64-byte line.
        hierarchy = CacheHierarchy(DEFAULT_MACHINE)
        report = hierarchy.run_trace((address, False) for address in range(0, 8 * 512, 8))
        assert report.level("L1").hit_rate > 0.8


class TestTraceGeneration:
    def test_trace_length_matches_count(self, vector_add_program):
        params = {"N": 32}
        trace = generate_trace(vector_add_program, params)
        assert len(trace) == 32 * 3

    def test_layout_addresses_disjoint(self, gemm_program):
        layout = build_layout(gemm_program, {"NI": 4, "NJ": 4, "NK": 4})
        bases = sorted(layout.bases.values())
        assert len(set(bases)) == len(bases)

    def test_unit_stride_trace_is_sequential(self, vector_add_program):
        trace = generate_trace(vector_add_program, {"N": 8})
        x_addresses = [addr for addr, is_write in trace if not is_write][::2]
        deltas = np.diff(x_addresses)
        assert np.all(deltas == 8)

    def test_register_budget_hides_scalars(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("x", ("N",))
        b.add_array("y", ("N",))
        b.add_scalar("t", transient=True)
        with b.loop("i", 0, "N"):
            b.assign(("t",), b.read("x", "i") * 2)
            b.assign(("y", "i"), b.read("t") + 1)
        program = b.finish()
        small_body = generate_trace(program, {"N": 4})
        spilled = list(TraceGenerator(program, {"N": 4}, register_budget=0).trace())
        assert len(spilled) > len(small_body)


class TestCostModel:
    def test_strided_order_costs_more(self):
        model = CostModel(threads=1)
        fast = build_gemm(order=("i", "k", "j"), with_scaling=False)
        slow = build_gemm(order=("j", "k", "i"), with_scaling=False)
        assert model.estimate_seconds(slow, PARAMS) > model.estimate_seconds(fast, PARAMS)

    def test_parallelization_reduces_time(self):
        program = normalize_program(build_gemm(with_scaling=False))
        Parallelize(0).apply(program)
        sequential = CostModel(threads=1).estimate_seconds(program, PARAMS)
        parallel = CostModel(threads=12).estimate_seconds(program, PARAMS)
        assert parallel < sequential

    def test_vectorization_reduces_compute_time(self):
        program = normalize_program(build_gemm(with_scaling=False))
        model = CostModel(threads=1)
        before = model.estimate(program, PARAMS)
        Vectorize(0, require_unit_stride=False).apply(program)
        after = model.estimate(program, PARAMS)
        assert after.nests[0].compute_time < before.nests[0].compute_time

    def test_blas_call_beats_generic_loops(self):
        program = normalize_program(build_gemm())
        model = CostModel(threads=1)
        generic = model.estimate_seconds(program, PARAMS)
        from repro.transforms import detect_blas3_nests
        index, _ = detect_blas3_nests(program)[0]
        ReplaceWithLibraryCall(index).apply(program)
        assert model.estimate_seconds(program, PARAMS) < generic

    def test_tiling_does_not_hurt_large_gemm(self):
        big = {"NI": 1000, "NJ": 1000, "NK": 1000}
        program = normalize_program(build_gemm(with_scaling=False))
        model = CostModel(threads=1)
        untiled = model.estimate_seconds(program, big)
        Tile(0, {"i0": 64, "i1": 64, "i2": 64}).apply(program)
        tiled = model.estimate_seconds(program, big)
        assert tiled <= untiled * 1.1

    def test_atomic_reduction_penalty(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("s", ())
        b.add_array("x", ("N", "N"))
        with b.loop("i", 0, "N"):
            with b.loop("j", 0, "N"):
                b.accumulate(("s",), b.read("x", "i", "j"))
        program = b.finish()
        apply_recipe(program, Recipe("r", [Parallelize(0, allow_reductions=True)]))
        with_atomics = CostModel(threads=12).estimate(program, {"N": 300})
        assert with_atomics.nests[0].atomic_time > 0

    def test_a_parallel_loop_counts_its_trips_at_the_enclosing_midpoints(self):
        """The parallel loop's bounds name loops around it (one in the band,
        one below it): they are bound at their midpoints, as the walk binds
        them, not priced as an empty loop on one thread."""
        b = ProgramBuilder("triangle", parameters=["N"])
        b.add_array("A", ("N", "N"))
        with b.loop("i", 0, "N"):
            b.assign(("A", "i", 0), 0.0)
            with b.loop("j", 0, "i"):
                with b.loop("k", 0, "j"):
                    b.assign(("A", "i", "k"), b.read("A", "i", "k") + 1.0)
        program = b.finish()
        program.body[0].body[1].body[0].parallel = True
        [nest] = CostModel(threads=12).estimate(program, {"N": 20}).nests
        assert nest.active_threads == 5          # k < j = 5 at j < i = 10

    def test_warm_caches_reduce_runtime(self, vector_add_program):
        model = CostModel(threads=1)
        cold = model.estimate_seconds(vector_add_program, {"N": 4096})
        warm = model.estimate_seconds(vector_add_program, {"N": 4096},
                                      assume_warm_caches=True)
        assert warm <= cold

    def test_expr_flops_prices_each_node_kind(self):
        i, j = Sym("i"), Sym("j")
        a, b, c = (Read(name, (i,)) for name in "abc")
        # A read is a leaf: its index arithmetic is addressing, not work.
        assert expr_flops(Read("a", (i + 1, j * 2 + 3))) == 0
        assert expr_flops(Read("a", (FloorDiv(i, j), Max((i, j))))) == 0
        assert expr_flops(Const(2.5)) == expr_flops(i) == 0
        assert expr_flops(Add((a, b, c))) == expr_flops(Mul((a, b, c))) == 2
        for extremum in (Min, Max):
            assert [expr_flops(extremum((a, b, c, i)[:n]))
                    for n in (2, 3, 4)] == [1, 2, 3]
        assert expr_flops(FloorDiv(a, b)) == expr_flops(Mod(a, j)) == 1
        weights = {name: expr_flops(Call(name, (a,))) for name in INTRINSICS}
        assert weights == {
            "sqrt": 6, "exp": 10, "log": 10, "abs": 1, "pow": 12, "div": 4,
            "fmax": 1, "fmin": 1, "floor": 1, "ceil": 1, "tanh": 12,
            "select": 1}
        # Each node adds what its operands cost.
        expr = a * b + Call("sqrt", (Read("c", (i + 1,)) + 1.0,))
        assert expr_flops(expr) == 1 + 1 + 6 + 1
        assert expr_flops(Call("select", (a + b, Min((a, c)), a / b))) == 7

    def test_counter_and_interpreter_read_one_table(self):
        from repro.interp import executor
        from repro.interp.executor import ExecutionError, run_program
        assert executor.INTRINSICS is INTRINSICS
        b = ProgramBuilder("one", parameters=[])
        b.add_scalar("x")
        b.assign(("x",), Call("foo", (Const(1.0),)))
        program = b.finish()
        with pytest.raises(KeyError, match="foo"):
            expr_flops(program.body[0].value)
        with pytest.raises(ExecutionError, match="unknown intrinsic 'foo'"):
            run_program(program, {})

    def test_threads_validated(self):
        with pytest.raises(ValueError):
            CostModel(threads=0)

    #: Modeled seconds recorded before the per-access terms of the nest
    #: walk were hoisted out of its level loop (PR 14): hoisting may not
    #: reorder a floating-point operation, so these are exact.  The fuzz
    #: rows are recorded with a read's index arithmetic counting no flops.
    PINNED_SECONDS = {
        "gemm": "0x1.bd8fd3e59acf0p-3", "2mm": "0x1.a0494cdf8c39cp-3",
        "jacobi-2d": "0x1.94e3af822242cp+2",
        "fem-stiffness": "0x1.d5021fba29d74p-9",
        "fuzz-1": "0x1.52df77a997af0p-22", "fuzz-5": "0x1.5744a2637dc7ap-22",
        "fuzz-9": "0x1.53376da91d949p-22",
    }

    def test_modeled_seconds_are_bit_stable(self):
        from repro.fuzz import generate_program
        from repro.workloads import registry as workloads
        model = CostModel(threads=4)
        seconds = {}
        for name in ("gemm", "2mm", "jacobi-2d", "fem-stiffness"):
            spec = workloads.benchmark(name)
            program = normalize_program(spec.variant("a"))
            for index, nest in enumerate(program.body):
                band = [lp.iterator for lp in nest.perfectly_nested_band()]
                apply_recipe(program, Recipe("r", [
                    Tile(index, {it: 32 for it in band[:2]}),
                    Parallelize(index), Vectorize(index)]))
            seconds[name] = model.estimate_seconds(program, spec.sizes("large"))
        for seed in (1, 5, 9):
            generated = generate_program(seed, "medium")
            seconds[f"fuzz-{seed}"] = model.estimate_seconds(
                normalize_program(generated.program), generated.parameters)
        assert ({name: value.hex() for name, value in seconds.items()}
                == self.PINNED_SECONDS)

    def test_node_prices_equal_from_scratch(self):
        """One table prices a program of which one top-level node varies:
        the sum is still what a from-scratch estimate gives — also when the
        variant is a library call, which leaves other containers touched
        for the nests after it — and a node the table holds is priced once
        per set of names touched before it."""
        from repro.perf.model import NodePrices
        from repro.transforms import match_blas3
        from repro.workloads import registry as workloads
        calls = []

        class Counting(CostModel):
            def estimate_node(self, node, *args, **kwargs):
                calls.append((id(node), args[2], frozenset(args[3])))
                return super().estimate_node(node, *args, **kwargs)

        model = Counting(threads=4)
        spec = workloads.benchmark("3mm")
        program = normalize_program(spec.variant("a"))
        parameters = spec.sizes("large")
        replaced = 0
        for index, nest in enumerate(program.body):
            prices = NodePrices(model, parameters)
            recipes = [Recipe("same"), Recipe("par", [Parallelize(index)]),
                       Recipe("same again")]
            if match_blas3(nest) is not None:
                replaced += 1
                recipes.insert(1, Recipe("call", [ReplaceWithLibraryCall(index)]))
            priced = []
            for recipe in recipes:
                variant = program.copy()
                apply_recipe(variant, recipe)
                expected = model.estimate_seconds(variant, parameters)
                mixed = program.snapshot()
                mixed.body[index] = variant.body[index]
                calls.clear()
                assert prices.seconds(mixed) == expected
                priced += [call for call in calls if call[1] != index]
            assert len(priced) == len(set(priced))
        assert replaced >= 3


def _noisy(runtime, noise, seed):
    """A measurement of ``runtime`` under seeded multiplicative Gaussian
    noise of relative deviation ``noise``."""
    gauss = random.Random(seed).gauss
    return lambda: runtime * (1.0 + gauss(0.0, noise))


class TestMeasurementProtocol:
    def test_deterministic_measurement_converges_quickly(self):
        protocol = MeasurementProtocol()
        result = protocol.run(lambda: 1.0)
        assert result.converged
        assert result.repetitions == protocol.min_repetitions
        assert result.median == 1.0

    def test_noisy_measurement_converges_below_threshold(self):
        result = MeasurementProtocol().run(_noisy(1.0, noise=0.02, seed=1))
        assert result.converged
        assert result.coefficient_of_variation <= 0.05
        assert 0.9 < result.median < 1.1

    def test_high_noise_hits_repetition_cap(self):
        protocol = MeasurementProtocol(max_relative_variation=1e-6, max_repetitions=10)
        result = protocol.run(_noisy(1.0, noise=0.5, seed=2))
        assert result.repetitions == 10
