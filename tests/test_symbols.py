"""Unit and property tests for the symbolic expression engine."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.symbols import (Add, Call, Const, FloorDiv, Max, Min, Mod, Mul,
                              Read, Sym, as_expr, call, const, maximum,
                              minimum, read, rebuild, sym)


class TestConstruction:
    def test_constant_folding_in_add(self):
        expr = Const(2) + Const(3) + Sym("i")
        assert isinstance(expr, Add)
        assert expr.evaluate({"i": 1}) == 6

    def test_constant_folding_in_mul(self):
        expr = Const(2) * Const(3)
        assert expr == Const(6)

    def test_mul_by_zero_collapses(self):
        assert Sym("i") * 0 == Const(0)

    def test_add_flattens_nested_sums(self):
        expr = (Sym("i") + 1) + (Sym("j") + 2)
        assert expr.evaluate({"i": 10, "j": 20}) == 33

    def test_subtraction_and_negation(self):
        expr = Sym("i") - 3
        assert expr.evaluate({"i": 10}) == 7
        assert (-Sym("i")).evaluate({"i": 4}) == -4

    def test_floordiv_simplification(self):
        assert FloorDiv.make(Sym("i"), Const(1)) == Sym("i")
        assert FloorDiv.make(Const(7), Const(2)) == Const(3)

    def test_mod_of_constants(self):
        assert Mod.make(Const(7), Const(3)) == Const(1)

    @pytest.mark.parametrize("family", [FloorDiv, Mod])
    @pytest.mark.parametrize("numerator", [Const(8), Sym("NI")])
    def test_constant_zero_denominator_is_refused(self, family, numerator):
        with pytest.raises(ValueError):
            family.make(numerator, Const(0))
        with pytest.raises(ValueError):
            family.make(numerator, 0.0)

    def test_family_members_keep_their_slots(self):
        """Min/Max and FloorDiv/Mod share a base each; none gains a
        ``__dict__``."""
        for expr in (minimum(Sym("i"), Sym("j")), maximum(Sym("i"), Sym("j")),
                     FloorDiv.make(Sym("i"), Sym("j")),
                     Mod.make(Sym("i"), Sym("j"))):
            assert not hasattr(expr, "__dict__"), type(expr).__name__

    def test_min_max_fold_constants(self):
        assert minimum(3, 5) == Const(3)
        assert maximum(3, 5) == Const(5)
        expr = minimum(Sym("i"), 5, 7)
        assert expr.evaluate({"i": 10}) == 5

    def test_as_expr_coercions(self):
        assert as_expr(5) == Const(5)
        assert as_expr("i") == Sym("i")
        assert as_expr(Const(1)) == Const(1)
        with pytest.raises(TypeError):
            as_expr(object())

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            as_expr(True)

    def test_symbol_requires_name(self):
        with pytest.raises(ValueError):
            Sym("")


class TestQueries:
    def test_free_symbols(self):
        expr = Sym("i") * 2 + Sym("N") - 1
        assert expr.free_symbols() == {"i", "N"}

    def test_substitute_replaces_symbols(self):
        expr = Sym("i") + Sym("j")
        replaced = expr.substitute({"i": Sym("k") * 2})
        assert replaced.evaluate({"k": 3, "j": 1}) == 7

    def test_substitute_is_pure(self):
        expr = Sym("i") + 1
        expr.substitute({"i": 5})
        assert expr.free_symbols() == {"i"}

    @pytest.mark.parametrize("expr", [
        Sym("i") + Sym("j") + 1, Sym("i") * Sym("N"),
        FloorDiv.make(Sym("i"), Const(4)), Mod.make(Sym("i"), Const(4)),
        minimum(Sym("i"), Sym("N")), maximum(Sym("i"), 0),
        read("A", Sym("i"), 2), call("sqrt", read("A", Sym("i")))])
    def test_rebuild_over_own_children_is_identity(self, expr):
        assert type(rebuild(expr, expr.children())) is type(expr)
        assert rebuild(expr, expr.children()) == expr

    def test_rebuild_refolds_constants_and_keeps_leaves(self):
        assert rebuild(Sym("i") + 1, [Const(2), Const(1)]) == Const(3)
        assert rebuild(read("A", Sym("i")), [Const(0)]) == read("A", 0)
        for leaf in (Sym("i"), Const(2)):
            assert rebuild(leaf, []) is leaf

    def test_evaluate_unbound_symbol_raises(self):
        with pytest.raises(KeyError):
            Sym("i").evaluate({})

    def test_statement_values_are_not_evaluated_here(self):
        """Reads and intrinsic calls are the interpreter's to evaluate."""
        for expr in (read("A", Sym("i")), call("sqrt", 16),
                     Sym("i") + read("A", 0)):
            with pytest.raises(TypeError):
                expr.evaluate({"i": 1})

    def test_equality_and_hashing(self):
        assert Sym("i") + 1 == Sym("i") + 1
        assert hash(Sym("i") * 2) == hash(Sym("i") * 2)
        assert Sym("i") != Sym("j")
        assert len({Sym("i"), Sym("i"), Sym("j")}) == 2


class TestAffineDecomposition:
    def test_affine_simple(self):
        coeffs, offset = (Sym("i") * 3 + Sym("j") + 7).as_affine()
        assert coeffs == {"i": 3, "j": 1}
        assert offset == 7

    def test_affine_with_negative_coefficients(self):
        coeffs, offset = (Sym("N") - Sym("i") - 1).as_affine()
        assert coeffs == {"N": 1, "i": -1}
        assert offset == -1

    def test_non_affine_product(self):
        assert (Sym("i") * Sym("j")).as_affine() is None

    def test_non_affine_floordiv(self):
        assert (Sym("i") // 2).as_affine() is None

    def test_constant_is_affine(self):
        coeffs, offset = Const(5).as_affine()
        assert coeffs == {} and offset == 5


# -- property-based tests --------------------------------------------------------

_names = st.sampled_from(["i", "j", "k", "N", "M"])


@st.composite
def affine_exprs(draw, depth=0):
    """Random affine expressions over a small set of symbols."""
    if depth > 3 or draw(st.booleans()):
        if draw(st.booleans()):
            return Const(draw(st.integers(-10, 10)))
        return Sym(draw(_names))
    left = draw(affine_exprs(depth=depth + 1))
    right = draw(affine_exprs(depth=depth + 1))
    if draw(st.booleans()):
        return left + right
    return left * draw(st.integers(-5, 5))


@given(affine_exprs(), st.integers(0, 7), st.integers(0, 7), st.integers(0, 7),
       st.integers(1, 9), st.integers(1, 9))
@settings(max_examples=60, deadline=None)
def test_affine_decomposition_matches_evaluation(expr, i, j, k, n, m):
    env = {"i": i, "j": j, "k": k, "N": n, "M": m}
    decomposition = expr.as_affine()
    assert decomposition is not None
    coeffs, offset = decomposition
    reconstructed = offset + sum(coeff * env[name] for name, coeff in coeffs.items())
    assert reconstructed == expr.evaluate(env)


@given(affine_exprs(), st.integers(-5, 5))
@settings(max_examples=60, deadline=None)
def test_substitution_commutes_with_evaluation(expr, value):
    env = {"i": 2, "j": 3, "k": 4, "N": 5, "M": 6}
    substituted = expr.substitute({"i": Const(value)})
    env_direct = dict(env)
    env_direct["i"] = value
    assert substituted.evaluate(env) == expr.evaluate(env_direct)


@given(affine_exprs())
@settings(max_examples=60, deadline=None)
def test_expression_equality_is_consistent_with_hash(expr):
    clone = expr.substitute({})
    assert clone == expr
    assert hash(clone) == hash(expr)
