"""Tests for the reference interpreter."""

import numpy as np
import pytest

from helpers import build_gemm, build_vector_add
from repro.frontend import parse_clike_program
from repro.interp import (ExecutionError, allocate_storage,
                          programs_equivalent, run_program)
from repro.ir import ProgramBuilder
from repro.ir.symbols import Sym


class TestExecution:
    def test_vector_add_matches_numpy(self, rng):
        program = build_vector_add()
        x = rng.uniform(size=8)
        y = rng.uniform(size=8)
        result = run_program(program, {"N": 8}, {"x": x, "y": y})
        assert np.allclose(result["z"], x + y)

    def test_gemm_matches_numpy(self, rng):
        program = build_gemm(with_scaling=False)
        params = {"NI": 5, "NJ": 6, "NK": 7}
        a = rng.uniform(size=(5, 7))
        b = rng.uniform(size=(7, 6))
        c = rng.uniform(size=(5, 6))
        result = run_program(program, params,
                             {"A": a, "B": b, "C": c, "alpha": np.array(2.0),
                              "beta": np.array(1.0)})
        assert np.allclose(result["C"], c + 2.0 * (a @ b))

    def test_intrinsics(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("x", ("N",))
        b.add_array("y", ("N",))
        with b.loop("i", 0, "N"):
            b.assign(("y", "i"), b.call("sqrt", b.read("x", "i"))
                     + b.call("fmax", b.read("x", "i"), 2.0))
        result = run_program(b.finish(), {"N": 3}, {"x": np.array([1.0, 4.0, 9.0])})
        # sqrt(x) + max(x, 2): 1+2, 2+4, 3+9
        assert np.allclose(result["y"], [3.0, 6.0, 12.0])

    def test_rounding_and_tanh_intrinsics(self):
        """The interpreter's table is the one intrinsic table: it has the
        ``tanh`` the fuzz generator emits, and ``floor``/``ceil``."""
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("x", ("N",))
        b.add_array("y", ("N",))
        with b.loop("i", 0, "N"):
            b.assign(("y", "i"), b.call("tanh", b.read("x", "i"))
                     + b.call("floor", b.read("x", "i"))
                     + b.call("ceil", b.read("x", "i")))
        x = np.array([-1.5, 0.25, 2.0])
        result = run_program(b.finish(), {"N": 3}, {"x": x})
        assert np.allclose(result["y"], np.tanh(x) + np.floor(x) + np.ceil(x))

    def test_strided_and_offset_loops(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("x", ("N",))
        with b.loop("i", 1, "N", 2):
            b.assign(("x", "i"), 1.0)
        result = run_program(b.finish(), {"N": 6}, {"x": np.zeros(6)})
        assert np.allclose(result["x"], [0, 1, 0, 1, 0, 1])

    def test_scalar_containers(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("x", ("N",))
        b.add_scalar("s", transient=True)
        b.add_array("out", ("N",))
        with b.loop("i", 0, "N"):
            b.assign(("s",), b.read("x", "i") * 2)
            b.assign(("out", "i"), b.read("s") + 1)
        result = run_program(b.finish(), {"N": 4}, {"x": np.arange(4.0)})
        assert np.allclose(result["out"], np.arange(4.0) * 2 + 1)

    def test_unknown_intrinsic_raises(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("x", ("N",))
        with b.loop("i", 0, "N"):
            b.assign(("x", "i"), b.call("frobnicate", 1.0))
        with pytest.raises(ExecutionError):
            run_program(b.finish(), {"N": 2})

    def test_negative_step_rejected(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("x", ("N",))
        with b.loop("i", 0, "N", -1):
            b.assign(("x", "i"), 1.0)
        with pytest.raises(ExecutionError):
            run_program(b.finish(), {"N": 4})


class TestStorageAndEquivalence:
    def test_allocate_storage_shapes(self, gemm_program):
        storage = allocate_storage(gemm_program, {"NI": 3, "NJ": 4, "NK": 5})
        assert storage["C"].shape == (3, 4)
        assert storage["alpha"].shape == ()

    def test_allocate_storage_reproducible(self, gemm_program):
        params = {"NI": 3, "NJ": 4, "NK": 5}
        first = allocate_storage(gemm_program, params, seed=3)
        second = allocate_storage(gemm_program, params, seed=3)
        assert np.array_equal(first["A"], second["A"])

    def test_programs_equivalent_positive(self):
        assert programs_equivalent(build_vector_add(), build_vector_add(), {"N": 8})

    def test_programs_equivalent_negative(self):
        left = build_vector_add()
        b = ProgramBuilder("vecsub", parameters=["N"])
        b.add_array("x", ("N",))
        b.add_array("y", ("N",))
        b.add_array("z", ("N",))
        with b.loop("i", 0, "N"):
            b.assign(("z", "i"), b.read("x", "i") - b.read("y", "i"))
        assert not programs_equivalent(left, b.finish(), {"N": 8})

    @pytest.mark.parametrize("element", ["int", "double"])
    def test_sum_and_square_differ_on_random_inputs(self, element):
        # Integer containers once got uniform [0, 1) draws cast to int, i.e.
        # all zeros, on which A[i] + A[i] and A[i] * A[i] agree.
        def program(operator):
            return parse_clike_program(
                f"{element} A[N];\n{element} B[N];\n"
                f"for (i = 0; i < N; i++) {{ B[i] = A[i] {operator} A[i]; }}")

        assert not programs_equivalent(program("+"), program("*"), {"N": 8})

    def test_integer_containers_get_small_non_negative_inputs(self):
        program = parse_clike_program("int A[N];\nint B[N];\n"
                                      "for (i = 0; i < N; i++) { B[i] = A[i]; }")
        data = allocate_storage(program, {"N": 64}, seed=1)["A"]
        assert data.dtype == np.int64
        assert set(np.unique(data)) == {0, 1, 2, 3}


class TestTypedErrors:
    def _oob_program(self):
        b = ProgramBuilder("oob", parameters=["N"])
        b.add_array("x", ("N",))
        with b.loop("i", 0, "N"):
            b.assign(("x", "i"), b.read("x", Sym("i") + 1))
        return b.finish()

    def test_out_of_bounds_read(self):
        from repro.interp import OutOfBoundsError

        with pytest.raises(OutOfBoundsError) as excinfo:
            run_program(self._oob_program(), {"N": 3})
        error = excinfo.value
        assert isinstance(error, ExecutionError)
        assert error.array == "x"
        assert error.access == "read"
        assert error.indices == (3,)
        assert error.shape == (3,)

    def test_out_of_bounds_write(self):
        from repro.interp import OutOfBoundsError

        b = ProgramBuilder("oobw", parameters=["N"])
        b.add_array("x", ("N",))
        with b.loop("i", 0, "N"):
            b.assign(("x", Sym("i") + 1), 1.0)
        with pytest.raises(OutOfBoundsError) as excinfo:
            run_program(b.finish(), {"N": 2})
        assert excinfo.value.access == "write"

    def test_negative_index_rejected(self):
        # NumPy would silently wrap x[-1]; the interpreter must not.
        from repro.interp import OutOfBoundsError

        b = ProgramBuilder("neg", parameters=["N"])
        b.add_array("x", ("N",))
        with b.loop("i", 0, "N"):
            b.assign(("x", "i"), b.read("x", Sym("i") - 1))
        with pytest.raises(OutOfBoundsError) as excinfo:
            run_program(b.finish(), {"N": 3})
        assert excinfo.value.indices == (-1,)

    def test_error_carries_statement_and_iterators(self):
        with pytest.raises(ExecutionError) as excinfo:
            run_program(self._oob_program(), {"N": 3})
        error = excinfo.value
        assert error.statement is not None
        assert error.iterators == {"i": 2}
        text = str(error)
        assert error.statement in text and "i=2" in text

    def test_uninitialized_read_detected(self):
        from repro.interp import UninitializedReadError

        b = ProgramBuilder("uninit", parameters=["N"])
        b.add_array("x", ("N",))
        b.add_scalar("t", transient=True)
        with b.loop("i", 0, "N"):
            b.assign(("x", "i"), b.read("t"))
        with pytest.raises(UninitializedReadError) as excinfo:
            run_program(b.finish(), {"N": 2}, check_uninitialized=True)
        assert excinfo.value.array == "t"

    def test_uninitialized_check_off_by_default(self):
        b = ProgramBuilder("uninit_ok", parameters=["N"])
        b.add_array("x", ("N",))
        b.add_scalar("t", transient=True)
        with b.loop("i", 0, "N"):
            b.assign(("x", "i"), b.read("t"))
        run_program(b.finish(), {"N": 2})  # transients are zero-filled

    def test_write_before_read_passes_check(self):
        b = ProgramBuilder("init_ok", parameters=["N"])
        b.add_array("x", ("N",))
        b.add_scalar("t", transient=True)
        b.assign(("t",), 2.0)
        with b.loop("i", 0, "N"):
            b.assign(("x", "i"), b.read("t"))
        run_program(b.finish(), {"N": 2}, check_uninitialized=True)

    def test_select_intrinsic(self):
        b = ProgramBuilder("sel", parameters=["N"])
        b.add_array("x", ("N",))
        with b.loop("i", 0, "N"):
            b.assign(("x", "i"), b.call("select", "i", 1.0, -1.0))
        result = run_program(b.finish(), {"N": 3})
        assert list(result["x"]) == [-1.0, 1.0, 1.0]
