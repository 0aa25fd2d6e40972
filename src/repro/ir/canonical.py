"""Memoized canonical-JSON fragments: the warm half of content hashing.

``repro.api.hashing.program_content_hash`` is defined as the SHA-256 of
``json.dumps({"program": canonical_program_dict(p)}, sort_keys=True)`` —
a full ``program_to_dict`` + ``json.dumps`` walk per call.  On the warm
serving path that walk dominates: the same programs are hashed again and
again while their structure never changes.

This module produces the *same bytes* without the walk.  Every expression
and node memoizes its canonical JSON fragment (the exact substring
``json.dumps(..., sort_keys=True)`` would emit for it, with incidental
names already stripped) in a ``_frag`` slot; :func:`canonical_program_json`
assembles the program-level JSON from those fragments.  Memos stay honest
through the IR's mutation seams — attribute assignment and body-list
operations clear the owning chain (see ``repro.ir.nodes``) — and
expressions are immutable, so their fragments never expire.  Expressions
are hash-consed where they are built (``repro.ir.symbols``), so each
distinct expression's fragment is formatted once per process.

Byte-compatibility with the reference implementation is load-bearing
(cache keys must not change across this optimization) and is enforced by
a fuzz property test (``tests/test_hash_consing.py``).
"""

from __future__ import annotations

import json

from .arrays import Array
from .nodes import Computation, LibraryCall, Loop, Node, Program
from .symbols import (Add, Call, Const, Expr, FloorDiv, Max, Min, Mod, Mul,
                      Read, Sym)

_encode_str = json.encoder.encode_basestring_ascii


def _dumps(value) -> str:
    """``json.dumps(value)``: the scalars a fragment holds are formatted
    here, exactly as the encoder formats them; anything else (a float, a
    list) goes through ``json.dumps``."""
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return json.dumps(value)


def expr_fragment(expr: Expr) -> str:
    """The canonical JSON fragment of one expression (memoized)."""
    try:
        return expr._frag
    except AttributeError:
        pass
    # Keys appear in sorted order, exactly as json.dumps(..., sort_keys=True)
    # emits the matching expr_to_dict dictionary.
    if isinstance(expr, Const):
        frag = '{"kind": "const", "value": %s}' % _dumps(expr.value)
    elif isinstance(expr, Sym):
        frag = '{"kind": "sym", "name": %s}' % _dumps(expr.name)
    elif isinstance(expr, Add):
        frag = '{"kind": "add", "terms": [%s]}' % ", ".join(
            expr_fragment(t) for t in expr.terms)
    elif isinstance(expr, Mul):
        frag = '{"factors": [%s], "kind": "mul"}' % ", ".join(
            expr_fragment(f) for f in expr.factors)
    elif isinstance(expr, FloorDiv):
        frag = '{"denominator": %s, "kind": "floordiv", "numerator": %s}' % (
            expr_fragment(expr.denominator), expr_fragment(expr.numerator))
    elif isinstance(expr, Mod):
        frag = '{"denominator": %s, "kind": "mod", "numerator": %s}' % (
            expr_fragment(expr.denominator), expr_fragment(expr.numerator))
    elif isinstance(expr, Min):
        frag = '{"args": [%s], "kind": "min"}' % ", ".join(
            expr_fragment(a) for a in expr.args)
    elif isinstance(expr, Max):
        frag = '{"args": [%s], "kind": "max"}' % ", ".join(
            expr_fragment(a) for a in expr.args)
    elif isinstance(expr, Read):
        frag = '{"array": %s, "indices": [%s], "kind": "read"}' % (
            _dumps(expr.array),
            ", ".join(expr_fragment(i) for i in expr.indices))
    elif isinstance(expr, Call):
        frag = '{"args": [%s], "func": %s, "kind": "call"}' % (
            ", ".join(expr_fragment(a) for a in expr.args),
            _dumps(expr.func))
    else:
        raise TypeError(
            f"cannot serialize expression of type {type(expr).__name__}")
    expr._frag = frag
    return frag


def node_fragment(node: Node) -> str:
    """The canonical JSON fragment of one loop-tree node (memoized).

    Canonical means statement labels are stripped (computation ``name`` is
    the empty string), matching ``canonical_program_dict``.
    """
    try:
        return node._frag
    except AttributeError:
        pass
    if isinstance(node, Loop):
        frag = ('{"body": [%s], "end": %s, "iterator": %s, "kind": "loop", '
                '"parallel": %s, "start": %s, "step": %s, "tile_of": %s, '
                '"unroll": %s, "vectorized": %s}') % (
            ", ".join(node_fragment(child) for child in node.body),
            expr_fragment(node.end), _dumps(node.iterator),
            _dumps(node.parallel), expr_fragment(node.start),
            expr_fragment(node.step), _dumps(node.tile_of),
            _dumps(node.unroll), _dumps(node.vectorized))
    elif isinstance(node, Computation):
        frag = ('{"kind": "computation", "name": "", "target": '
                '{"array": %s, "indices": [%s]}, "value": %s}') % (
            _dumps(node.target.array),
            ", ".join(expr_fragment(i) for i in node.target.indices),
            expr_fragment(node.value))
    elif isinstance(node, LibraryCall):
        frag = ('{"flops": %s, "inputs": %s, "kind": "library_call", '
                '"metadata": %s, "outputs": %s, "routine": %s}') % (
            expr_fragment(node.flop_expr), _dumps(list(node.inputs)),
            json.dumps(dict(node.metadata), sort_keys=True),
            _dumps(list(node.outputs)), _dumps(node.routine))
    else:
        raise TypeError(
            f"cannot serialize node of type {type(node).__name__}")
    node._frag = frag
    return frag


def array_fragment(arr: Array) -> str:
    """The canonical JSON fragment of one container declaration (memoized:
    a declaration is immutable)."""
    frag = arr.__dict__.get("_frag")
    if frag is None:
        frag = '{"dtype": %s, "name": %s, "shape": [%s], "transient": %s}' % (
            _dumps(arr.dtype), _dumps(arr.name),
            ", ".join(expr_fragment(dim) for dim in arr.shape),
            _dumps(arr.transient))
        object.__setattr__(arr, "_frag", frag)
    return frag


def canonical_program_json(program: Program) -> str:
    """Byte-identical to ``json.dumps(canonical_program_dict(program),
    sort_keys=True)``, assembled from memoized per-node fragments.

    Only the program-level join (array sort, parameter sort, fragment
    concatenation) runs per call; on a warm program every node fragment is
    a memo hit.
    """
    arrays = ", ".join(
        array_fragment(arr)
        for arr in sorted(program.arrays.values(), key=lambda a: a.name))
    body = ", ".join(node_fragment(node) for node in program.body)
    return '{"arrays": [%s], "body": [%s], "name": "", "parameters": %s}' % (
        arrays, body, _dumps(sorted(program.parameters)))

