"""Tests for affine access extraction and dependence analysis.

The dependence questions are asked of the specification
(``dependence_spec``), which ``tests/test_dependence_table.py`` holds the
table's projections to.
"""

import pytest

from dependence_spec import (body_dependences, dependences_between,
                             nest_dependences, permutation_is_legal,
                             self_dependences)
from helpers import build_gemm, build_stencil, build_vector_add
from repro.analysis import (EQ, LT, computation_accesses, decompose_access,
                            legal_permutations, nest_statements)
from repro.analysis.affine import decompose_index
from repro.ir import ProgramBuilder, access
from repro.ir.symbols import Sym


class TestAffineDecomposition:
    def test_coefficients_extracted(self):
        acc = decompose_access(access("A", Sym("i") * 2 + 1, Sym("j")), ["i", "j"], False)
        assert acc.affine
        assert acc.indices[0].coefficient("i") == 2
        assert acc.indices[0].constant == 1
        assert acc.indices[1].coefficient("j") == 1

    def test_parameter_offsets_separate(self):
        index = decompose_index(Sym("N") - Sym("i") - 1, ["i"])
        assert index.coefficient("i") == -1
        assert dict(index.offset_coefficients) == {"N": 1}

    def test_non_affine_flagged(self):
        acc = decompose_access(access("A", Sym("i") * Sym("j")), ["i", "j"], False)
        assert not acc.affine

    def test_computation_accesses_order(self, gemm_program):
        comp = list(gemm_program.iter_computations())[1]
        accesses = computation_accesses(comp, ["i", "j", "k"])
        assert accesses[-1].is_write
        assert accesses[-1].array == "C"


class TestDependenceTesting:
    def test_independent_computations(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("x", ("N",))
        b.add_array("y", ("N",))
        b.add_array("z", ("N",))
        with b.loop("i", 0, "N"):
            first = b.assign(("x", "i"), b.read("z", "i"))
            second = b.assign(("y", "i"), b.read("z", "i") * 2)
        deps = dependences_between(first, second, ["i"])
        assert deps == []

    def test_flow_dependence_same_iteration(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("x", ("N",))
        b.add_array("y", ("N",))
        with b.loop("i", 0, "N"):
            first = b.assign(("x", "i"), 1.0)
            second = b.assign(("y", "i"), b.read("x", "i"))
        deps = dependences_between(first, second, ["i"])
        assert len(deps) == 1
        assert deps[0].kind == "flow"
        assert deps[0].loop_independent

    def test_carried_dependence_distance_one(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("x", ("N",))
        with b.loop("i", 1, "N"):
            comp = b.assign(("x", "i"), b.read("x", Sym("i") - 1) + 1.0)
        deps = self_dependences(comp, ["i"])
        assert deps
        assert any(dep.directions == (LT,) and dep.distance == (1,) for dep in deps)

    def test_strong_siv_disproves_dependence(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("x", ("N",))
        with b.loop("i", 0, "N"):
            first = b.assign(("x", Sym("i") * 2), 1.0)
            second = b.assign(("x", Sym("i") * 2), 2.0)
        # Same subscript: output dependence at distance 0 exists.
        deps = dependences_between(first, second, ["i"])
        assert any(dep.kind == "output" for dep in deps)

    def test_gcd_test_disproves(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("x", ("N",))
        b.add_array("y", ("N",))
        with b.loop("i", 0, "N"):
            even = b.assign(("x", Sym("i") * 2), 1.0)
            odd = b.assign(("y", "i"), b.read("x", Sym("i") * 2 + 1))
        deps = dependences_between(even, odd, ["i"])
        assert deps == []

    def test_loop_carried_on_reduction(self, gemm_program):
        inner_k = gemm_program.body[1].body[0].body[0]
        children = [nest_statements(child) for child in inner_k.body]
        carried = [found for _source, _sink, found
                   in body_dependences(inner_k.iterator, children)
                   if found[2] != (EQ,)]
        assert carried  # C[i][j] accumulation carried by k


class TestPermutationLegality:
    def test_gemm_fully_permutable(self, gemm_program):
        nest = gemm_program.body[1]
        assert permutation_is_legal(nest, ["i", "k", "j"])
        assert permutation_is_legal(nest, ["k", "j", "i"])
        assert len(legal_permutations(nest)) == 6

    def test_stencil_time_loop_not_interchangeable(self, stencil_program):
        nest = stencil_program.body[0]
        # The band is only the time loop (its body has two inner loops), so
        # check an explicitly constructed two-level case instead.
        b = ProgramBuilder("p", parameters=["T", "N"])
        b.add_array("A", ("T", "N"))
        with b.loop("t", 1, "T"):
            with b.loop("i", 1, b.sym("N") - 1):
                b.assign(("A", "t", "i"),
                         b.read("A", b.sym("t") - 1, b.sym("i") - 1)
                         + b.read("A", b.sym("t") - 1, b.sym("i") + 1))
        nest = b.finish().body[0]
        assert permutation_is_legal(nest, ["t", "i"])
        # Interchanging a wavefront-style dependence (t-1, i+1) is illegal.
        assert not permutation_is_legal(nest, ["i", "t"])

    def test_permutation_mismatch_raises(self, gemm_program):
        with pytest.raises(ValueError):
            permutation_is_legal(gemm_program.body[1], ["i", "j"])

    def test_nest_dependences_cover_reduction(self, gemm_program):
        deps = nest_dependences(gemm_program.body[1])
        assert any(dep.array == "C" for dep in deps)
