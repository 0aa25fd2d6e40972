"""Tests for the dataflow summary, parallelism detection and strides."""

import pytest

from helpers import build_gemm, build_stencil, build_vector_add
from repro.analysis import (adjacent_flows, analyze_loop_parallelism,
                            band_strides, body_dataflow, node_reads_writes,
                            program_stride_cost)
from repro.analysis.strides import DEFAULT_PARAMETER_VALUE
from repro.ir import ProgramBuilder
from repro.normalization import normalize_program
from repro.workloads.polybench import build_atax_b, build_gesummv_b


class TestDataflow:
    def test_reads_writes_summary(self, gemm_program):
        reads, writes = node_reads_writes(gemm_program.body[1])
        assert writes == {"C"}
        assert {"A", "B", "alpha"} <= reads

    def test_flow_edge_between_nests(self):
        program = build_atax_b()
        summaries, edges = body_dataflow(program.body)
        # tmp is produced by nest 2 and consumed by nest 3.
        kinds, arrays = edges[(2, 3)]
        assert "flow" in kinds and "tmp" in arrays
        assert len(summaries) == len(program.body)

    def test_edges_only_run_forward(self):
        program = build_gesummv_b()
        _summaries, edges = body_dataflow(program.body)
        assert (2, 4) in edges
        assert all(producer < consumer for producer, consumer in edges)

    def test_adjacent_flow_exclusive(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("x", ("N",))
        b.add_array("t", ("N",), transient=True)
        b.add_array("y", ("N",))
        with b.loop("i", 0, "N"):
            b.assign(("t", "i"), b.read("x", "i") * 2)
        with b.loop("i", 0, "N"):
            b.assign(("y", "i"), b.read("t", "i") + 1)
        # No one else writes or reads ``t``: both fusion rules accept it.
        assert adjacent_flows(b.finish().body) == [(0, frozenset(), frozenset())]

    def test_adjacent_flow_names_the_other_writers_and_readers(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("x", ("N",))
        b.add_array("t", ("N",))
        with b.loop("i", 0, "N"):
            b.assign(("t", "i"), b.read("x", "i") * 2)
        with b.loop("i", 0, "N"):
            b.assign(("t", "i"), b.read("t", "i") + 1)
        with b.loop("i", 0, "N"):
            b.assign(("x", "i"), b.read("t", "i"))
        # ``t`` flows 0 -> 1 and 1 -> 2.  Other writers: the consumer 1
        # (of 0 -> 1) and the first producer 0 (of 1 -> 2); other readers:
        # nest 2 (of 0 -> 1) and the producer 1 itself (of 1 -> 2).
        assert adjacent_flows(b.finish().body) == [
            (0, frozenset({1}), frozenset({2})),
            (1, frozenset({0}), frozenset({1}))]


class TestParallelism:
    def test_vector_add_parallel(self, vector_add_program):
        info = analyze_loop_parallelism(vector_add_program.body[0])
        assert info.is_parallel and not info.is_reduction

    def test_reduction_loop_detected(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("s", ())
        b.add_array("x", ("N",))
        with b.loop("i", 0, "N"):
            b.accumulate(("s",), b.read("x", "i"))
        info = analyze_loop_parallelism(b.finish().body[0])
        assert not info.is_parallel and info.is_reduction

    def test_sequential_recurrence(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("x", ("N",))
        with b.loop("i", 1, "N"):
            b.assign(("x", "i"), b.read("x", b.sym("i") - 1) + 1.0)
        info = analyze_loop_parallelism(b.finish().body[0])
        assert not info.is_parallel and not info.is_reduction

    def test_privatizable_scalar_allows_parallelism(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("x", ("N",))
        b.add_array("y", ("N",))
        b.add_scalar("tmp", transient=True)
        with b.loop("i", 0, "N"):
            b.assign(("tmp",), b.read("x", "i") * 2)
            b.assign(("y", "i"), b.read("tmp") + 1)
        program = b.finish()
        info = analyze_loop_parallelism(program.body[0], program.arrays)
        assert info.is_parallel and info.requires_privatization

    def test_gemm_parallel_loops(self, gemm_program):
        nest = gemm_program.body[1]
        names = [loop.iterator for loop in nest.iter_loops()
                 if analyze_loop_parallelism(loop).is_parallel]
        assert "i" in names and "j" in names and "k" not in names
        assert names[0] == nest.iterator == "i"
        assert not all(analyze_loop_parallelism(loop).is_parallel
                       for loop in nest.perfectly_nested_band())

    def test_stencil_time_loop_sequential(self, stencil_program):
        info = analyze_loop_parallelism(stencil_program.body[0])
        assert not info.is_parallel


class TestStridesAndReuse:
    def test_loop_order_changes_stride_cost(self, gemm_program, gemm_params):
        strides = band_strides(gemm_program.body[1], gemm_program.arrays,
                               gemm_params)
        assert strides.cost(["i", "k", "j"]) < strides.cost(["i", "j", "k"])

    def test_strides_per_iterator(self, gemm_program, gemm_params):
        strides = band_strides(gemm_program.body[1], gemm_program.arrays,
                               gemm_params)
        assert strides.per_iterator["k"] > strides.per_iterator["j"]
        assert strides.non_affine_accesses == 0

    def test_unbound_sizes_are_priced_at_the_nominal_extent(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("A", ("N", "N"))
        with b.loop("j", 0, "N"):
            with b.loop("i", 0, "N"):
                b.assign(("A", "i", "j"), 1.0)
        transposed = b.finish()
        strides = band_strides(transposed.body[0], transposed.arrays)
        assert strides.per_iterator == {"j": 1.0,
                                        "i": float(DEFAULT_PARAMETER_VALUE)}
        assert strides.cost(["i", "j"]) < strides.cost(["j", "i"])
        # Normalization takes no sizes: it picks the unit-stride order.
        good = normalize_program(transposed)
        assert program_stride_cost(good) == strides.cost(["i", "j"])

    def test_program_stride_cost_sums_nests(self, gemm_program, gemm_params):
        total = program_stride_cost(gemm_program, gemm_params)
        assert total > 0
