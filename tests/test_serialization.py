"""Serialization round-trip tests (unit + property-based)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import build_gemm, build_stencil, build_vector_add
from repro.ir import (expr_from_dict, expr_to_dict, program_from_json,
                      program_to_json, to_pseudocode)
from repro.ir.serialization import node_from_dict, node_to_dict
from repro.ir.symbols import (Call, Const, FloorDiv, Max, Min, Mod, Read, Sym)


class TestExpressionRoundTrip:
    def test_all_expression_kinds(self):
        expressions = [
            Const(3),
            Sym("i"),
            Sym("i") + 2 * Sym("j"),
            Sym("i") * Sym("j"),
            FloorDiv.make(Sym("i"), Const(4)),
            Mod.make(Sym("i"), Const(3)),
            Min.make([Sym("i"), Const(7)]),
            Max.make([Sym("i"), Const(0)]),
            Read("A", (Sym("i") + 1, Sym("j"))),
            Call("sqrt", (Sym("x"),)),
        ]
        for expr in expressions:
            assert expr_from_dict(expr_to_dict(expr)) == expr


class TestProgramRoundTrip:
    def test_gemm_round_trip_preserves_structure(self):
        program = build_gemm()
        restored = program_from_json(program_to_json(program))
        assert to_pseudocode(restored) == to_pseudocode(program)
        assert restored.parameters == program.parameters
        assert set(restored.arrays) == set(program.arrays)

    def test_stencil_round_trip(self):
        program = build_stencil()
        restored = program_from_json(program_to_json(program))
        assert to_pseudocode(restored) == to_pseudocode(program)

    def test_annotations_survive(self):
        program = build_vector_add()
        program.body[0].parallel = True
        program.body[0].vectorized = True
        program.body[0].unroll = 4
        restored = program_from_json(program_to_json(program))
        loop = restored.body[0]
        assert loop.parallel and loop.vectorized and loop.unroll == 4

    def test_library_call_round_trip(self):
        from repro.ir.nodes import LibraryCall
        call = LibraryCall("gemm", ["C"], ["A", "B"], Sym("N") * Sym("N") * 2,
                           metadata={"roles": ["i", "j", "k"]})
        restored = node_from_dict(node_to_dict(call))
        assert restored.routine == "gemm"
        assert restored.outputs == ("C",)
        assert restored.metadata["roles"] == ["i", "j", "k"]
        assert restored.flop_expr == call.flop_expr


_leaf = st.one_of(st.integers(-20, 20).map(Const),
                  st.sampled_from(["i", "j", "N"]).map(Sym))


@st.composite
def random_exprs(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return draw(_leaf)
    kind = draw(st.sampled_from(["add", "mul", "min", "max", "read", "call",
                                 "floordiv", "mod"]))
    left = draw(random_exprs(depth=depth + 1))
    right = draw(random_exprs(depth=depth + 1))
    if kind == "add":
        return left + right
    if kind == "mul":
        return left * right
    if kind == "min":
        return Min.make([left, right])
    if kind == "max":
        return Max.make([left, right])
    if kind == "read":
        return Read("A", (left,))
    if kind == "call":
        return Call("fmax", (left, right))
    family = FloorDiv if kind == "floordiv" else Mod
    return family.make(left, Const(draw(st.integers(1, 8))))


@given(random_exprs())
@settings(max_examples=80, deadline=None)
def test_expression_round_trip_property(expr):
    assert expr_from_dict(expr_to_dict(expr)) == expr


def _sym_names(data):
    """The ``sym`` names anywhere in an ``expr_to_dict`` tree."""
    if isinstance(data, list):
        return set().union(*map(_sym_names, data))
    if not isinstance(data, dict):
        return set()
    if data["kind"] == "sym":
        return {data["name"]}
    return _sym_names(list(data.values()))


def _replace_syms(data, mapping):
    """``data`` with each ``sym`` entry named in ``mapping`` swapped for the
    dict of its replacement."""
    if isinstance(data, list):
        return [_replace_syms(child, mapping) for child in data]
    if not isinstance(data, dict):
        return data
    if data["kind"] == "sym" and data["name"] in mapping:
        return expr_to_dict(mapping[data["name"]])
    return {key: _replace_syms(value, mapping) for key, value in data.items()}


@given(random_exprs())
@settings(max_examples=80, deadline=None)
def test_free_symbols_are_the_serialized_syms(expr):
    assert expr.free_symbols() == _sym_names(expr_to_dict(expr))


@given(random_exprs(), st.dictionaries(st.sampled_from(["i", "j", "N"]),
                                       random_exprs(depth=2), max_size=3))
@settings(max_examples=80, deadline=None)
def test_substitute_matches_a_rebuild_from_the_serialized_tree(expr, mapping):
    """The reference rebuilds through the same ``make`` constructors from
    the serialized tree; it never calls ``substitute``."""
    expected = expr_from_dict(_replace_syms(expr_to_dict(expr), mapping))
    assert expr.substitute(mapping) == expected
