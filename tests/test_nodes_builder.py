"""Tests for loop-tree nodes, the builder API, printing and validation."""

import pickle

import pytest

from helpers import build_gemm, build_vector_add, malformed_gemm
from repro.ir import (Computation, LibraryCall, Loop, ProgramBuilder,
                      ValidationError, access, to_pseudocode, to_tree,
                      validate_program)
from repro.ir.nodes import rename_iterators
from repro.ir.symbols import Call, Read, Sym


class TestComputation:
    def test_reads_and_writes(self):
        comp = Computation(access("C", "i", "j"),
                           Read("C", ("i", "j")) + Read("A", ("i", "k")) * Read("B", ("k", "j")))
        reads = [acc.array for acc in comp.reads()]
        assert reads == ["C", "A", "B"]
        assert comp.writes()[0].array == "C"
        assert comp.accessed_arrays() == {"A", "B", "C"}

    def test_reduction_detection(self):
        reduction = Computation(access("s"), Read("s", ()) + Read("x", ("i",)))
        plain = Computation(access("y", "i"), Read("x", ("i",)) * 2)
        assert reduction.is_reduction()
        assert not plain.is_reduction()

    def test_substitute(self):
        comp = Computation(access("y", "i"), Read("x", (Sym("i") + 1,)))
        shifted = comp.substitute({"i": Sym("j")})
        assert str(shifted.target) == "y[j]"


class TestLoop:
    def test_rename_iterators_reaches_headers_statements_and_flops(self):
        inner = Loop("j", "i", "N", body=[
            Computation(access("y", "i", "j"), Read("x", ("j",))),
            LibraryCall("axpy", ["y"], ["x"], flop_expr=Sym("j") * Sym("i"))])
        nest = Loop("i", 0, "N", body=[inner])
        rename_iterators(nest, {"i": "a", "j": "b"})
        assert [loop.iterator for loop in nest.iter_loops()] == ["a", "b"]
        assert inner.start == Sym("a")
        assert str(inner.body[0].target) == "y[a, b]"
        assert inner.body[0].value == Read("x", (Sym("b"),))
        assert inner.body[1].flop_expr.free_symbols() == {"a", "b"}

    def test_trip_count(self):
        loop = Loop("i", 2, "N", 3)
        assert loop.trip_count({"N": 11}) == 3
        assert loop.trip_count({"N": 2}) == 0

    def test_trip_count_invalid_step(self):
        with pytest.raises(ValueError):
            Loop("i", 0, 10, 0).trip_count({})

    def test_is_normalized(self):
        assert Loop("i", 0, "N").is_normalized()
        assert not Loop("i", 1, "N").is_normalized()
        assert not Loop("i", 0, "N", 2).is_normalized()

    def test_band_and_depth(self, gemm_program):
        nest = gemm_program.body[1]
        band = nest.perfectly_nested_band()
        assert [loop.iterator for loop in band] == ["i", "j", "k"]
        assert nest.depth() == 3
        assert nest.is_perfect_nest()

    def test_imperfect_nest(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("x", ("N",))
        with b.loop("i", 0, "N"):
            b.assign(("x", "i"), 1.0)
            with b.loop("j", 0, "N"):
                b.assign(("x", "j"), 2.0)
        program = b.finish()
        assert not program.body[0].is_perfect_nest()

    def test_copy_is_deep(self, gemm_program):
        clone = gemm_program.copy()
        clone.body[0].body[0].body[0].name = "renamed"
        original_names = [c.name for c in gemm_program.iter_computations()]
        assert "renamed" not in original_names


class TestProgram:
    def test_iteration_helpers(self, gemm_program):
        assert len(list(gemm_program.iter_computations())) == 2
        assert len(list(gemm_program.iter_loops())) == 5
        assert len(gemm_program.top_level_loops()) == 2

    def test_duplicate_container_rejected(self):
        b = ProgramBuilder("p")
        b.add_array("A", ("N",))
        with pytest.raises(ValueError):
            b.add_array("A", ("N",))

    def test_used_parameters(self, gemm_program):
        assert {"NI", "NJ", "NK"} <= gemm_program.used_parameters()

    def test_library_calls_listed(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("A", ("N", "N"))
        b.add_array("C", ("N", "N"))
        b.library_call("syrk", outputs=["C"], inputs=["A"])
        program = b.finish()
        assert [call.routine for call in program.library_calls()] == ["syrk"]


class TestBuilder:
    def test_unclosed_loop_detected(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("x", ("N",))
        ctx = b.loop("i", 0, "N")
        ctx.__enter__()
        with pytest.raises(RuntimeError):
            b.finish()

    def test_accumulate_builds_reduction(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("s", ())
        b.add_array("x", ("N",))
        with b.loop("i", 0, "N"):
            comp = b.accumulate(("s",), b.read("x", "i"))
        assert comp.is_reduction()

    def test_parameters_inferred_from_bounds(self):
        b = ProgramBuilder("p")
        b.add_array("x", ("N",))
        with b.loop("i", 0, "M"):
            b.assign(("x", "i"), 0.0)
        program = b.finish()
        assert "M" in program.parameters and "N" in program.parameters


class TestPrinter:
    def test_pseudocode_contains_loops_and_statements(self, gemm_program):
        text = to_pseudocode(gemm_program)
        assert "for (i = 0; i < NI; i++)" in text
        assert "C[i, j]" in text

    def test_tree_rendering(self, gemm_program):
        text = to_tree(gemm_program)
        assert text.count("loop ") == 5
        assert text.count("comp ") == 2

    def test_annotations_printed(self, vector_add_program):
        loop = vector_add_program.body[0]
        loop.parallel = True
        loop.vectorized = True
        text = to_pseudocode(vector_add_program)
        assert "#pragma parallel simd" in text


class TestValidation:
    def test_valid_program_passes(self, gemm_program):
        assert validate_program(gemm_program) == []

    def test_undeclared_container(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("x", ("N",))
        with b.loop("i", 0, "N"):
            b.assign(("x", "i"), Read("ghost", (Sym("i"),)))
        errors = validate_program(b.finish(), strict=False)
        assert any("ghost" in error for error in errors)

    def test_rank_mismatch(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("x", ("N", "N"))
        with b.loop("i", 0, "N"):
            b.assign(("x", "i"), 1.0)
        errors = validate_program(b.finish(), strict=False)
        assert any("rank" in error for error in errors)

    def test_unbound_symbol_in_index(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("x", ("N",))
        with b.loop("i", 0, "N"):
            b.assign(("x", Sym("q")), 1.0)
        program = b.finish()
        # The builder registers unknown symbols as parameters; drop the bogus
        # one to simulate a malformed program.
        program.parameters.remove("q")
        errors = validate_program(program, strict=False)
        assert any("unbound" in error for error in errors)

    def test_strict_mode_raises(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("x", ("N",))
        with b.loop("i", 0, "N"):
            b.assign(("x", Sym("q")), 1.0)
        program = b.finish()
        program.parameters.remove("q")
        with pytest.raises(ValidationError):
            validate_program(program, strict=True)

    def test_iterator_shadowing_detected(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("x", ("N", "N"))
        with b.loop("i", 0, "N"):
            with b.loop("i", 0, "N"):
                b.assign(("x", "i", "i"), 1.0)
        errors = validate_program(b.finish(), strict=False)
        assert any("shadows" in error for error in errors)

    @pytest.mark.parametrize("kind, where", [
        ("read-in-bound", "loop 'i' bound"),
        ("read-in-index", "index of 'C'"),
        ("read-in-shape", "container 'B' extent")])
    def test_a_read_where_a_number_is_evaluated_is_named(self, kind, where):
        program, _ = malformed_gemm(kind)
        errors = validate_program(program, strict=False)
        assert len(errors) == 1
        assert where in errors[0] and ": A[0, 0] is a Read" in errors[0]

    def test_a_call_in_a_bound_is_named(self):
        program = build_gemm()
        program.body[1].end = Call("exp", (Sym("NI"),))
        assert validate_program(program, strict=False) == [
            "loop 'i' bound: exp(NI) is a Call, not an index expression"]

    def test_a_validation_error_is_a_value_error_that_survives_pickling(self):
        error = pickle.loads(pickle.dumps(
            ValidationError(["first problem", "second problem"])))
        assert isinstance(error, ValueError)
        assert error.errors == ["first problem", "second problem"]
        assert str(error) == "first problem; second problem"
