"""Tests for the dataflow summary, parallelism detection and strides."""

import contextlib

import pytest

from helpers import build_gemm, build_stencil, build_vector_add
from repro.analysis import (BandView, DependenceTable, adjacent_flows,
                            band_strides, body_dataflow, nest_statements,
                            node_reads_writes, program_stride_cost)
from repro.analysis.parallelism import (classify_carried, container_facts,
                                        privatizable)
from repro.analysis.strides import DEFAULT_PARAMETER_VALUE
from repro.ir import ProgramBuilder
from repro.normalization import normalize_program
from repro.workloads.polybench import build_atax_b, build_gesummv_b
from test_parallel_soundness import (scalar_left_behind, scratch_read_after,
                                     triangular_scratch)


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
        info = BandView(vector_add_program.body[0],
                        vector_add_program).parallelism(0)
        assert info.is_parallel and not info.is_reduction

    def test_the_program_is_a_required_input(self, vector_add_program):
        loop = vector_add_program.body[0]
        children = [nest_statements(child) for child in loop.body]
        carried = DependenceTable().carried(loop.iterator, children)
        with pytest.raises(TypeError):
            classify_carried(loop.iterator, children, carried)
        with pytest.raises(TypeError):
            privatizable(loop.body)

    def test_reduction_loop_detected(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("s", ())
        b.add_array("x", ("N",))
        with b.loop("i", 0, "N"):
            b.accumulate(("s",), b.read("x", "i"))
        program = b.finish()
        info = BandView(program.body[0], program).parallelism(0)
        assert not info.is_parallel and info.is_reduction

    def test_sequential_recurrence(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("x", ("N",))
        with b.loop("i", 1, "N"):
            b.assign(("x", "i"), b.read("x", b.sym("i") - 1) + 1.0)
        program = b.finish()
        info = BandView(program.body[0], program).parallelism(0)
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
        info = BandView(program.body[0], program).parallelism(0)
        assert info.is_parallel and info.requires_privatization

    def test_a_non_transient_scalar_is_never_privatized(self):
        program = scalar_left_behind()
        info = BandView(program.body[0], program).parallelism(0)
        assert not info.is_parallel and not info.requires_privatization

    def test_a_transient_read_after_the_loop_is_not_privatized(self):
        program = scratch_read_after()
        info = BandView(program.body[0], program).parallelism(0)
        assert not info.is_parallel
        # Without the later reader, each iteration's row is its own.
        del program.body[1]
        info = BandView(program.body[0], program).parallelism(0)
        assert info.is_parallel and info.requires_privatization

    def test_a_read_of_an_element_the_iteration_did_not_write_is_not_private(self):
        program = triangular_scratch()
        info = BandView(program.body[0], program).parallelism(0)
        assert not info.is_parallel
        assert privatizable(program.body[0].body,
                            container_facts(program)) == frozenset()
        # Reading only ``X[0..i)``, each iteration reads its own writes.
        program.body[0].body[1].end = program.body[0].body[0].end
        info = BandView(program.body[0], program).parallelism(0)
        assert info.is_parallel and info.requires_privatization

    def test_a_write_covers_a_read_under_the_loops_around_it(self):
        """``X[j]`` written under ``j`` and ``k`` covers a read of ``X[j]``
        under ``j`` and ``k`` with the same headers, in either order; not a
        read under ``j`` alone (``k`` may run no iteration), nor one of
        ``X[j + 1]``."""
        j = ("j", ProgramBuilder.sym("M") - 1)
        k = ("k", "K")

        def build(read_loops, offset):
            b = ProgramBuilder("p", parameters=["N", "M", "K"])
            b.add_array("A", ("N", "M"))
            b.add_array("B", ("N", "M"))
            b.add_array("X", ("M",), transient=True)
            with b.loop("i", 0, "N"):
                with b.loop("j", 0, j[1]), b.loop("k", 0, "K"):
                    b.assign(("X", "j"), b.read("A", "i", "j"))
                with contextlib.ExitStack() as loops:
                    for iterator, end in read_loops:
                        loops.enter_context(b.loop(iterator, 0, end))
                    b.assign(("B", "i", "j"),
                             b.read("X", b.sym("j") + offset))
            return b.finish()

        for read_loops, offset, private in (((j, k), 0, True),
                                            ((k, j), 0, True),
                                            ((j,), 0, False),
                                            ((j, k), 1, False)):
            program = build(read_loops, offset)
            found = privatizable(program.body[0].body, container_facts(program))
            assert found == (frozenset({"X"}) if private else frozenset()), \
                (read_loops, offset)

    def test_gemm_parallel_loops(self, gemm_program):
        nest = gemm_program.body[1]
        names = [loop.iterator for loop in nest.iter_loops()
                 if BandView(loop, gemm_program).parallelism(0).is_parallel]
        assert "i" in names and "j" in names and "k" not in names
        assert names[0] == nest.iterator == "i"
        assert not all(BandView(loop, gemm_program).parallelism(0).is_parallel
                       for loop in nest.perfectly_nested_band())

    def test_stencil_time_loop_sequential(self, stencil_program):
        info = BandView(stencil_program.body[0],
                        stencil_program).parallelism(0)
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
