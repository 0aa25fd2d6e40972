"""Serialization of programs and expressions to and from plain dictionaries.

The transfer-tuning database (Section 4) stores optimization recipes keyed by
loop-nest embeddings.  Persisting those databases, and exchanging loop nests
with the Tiramisu-style standalone search (which consumes a JSON
representation in the paper), requires a stable serialization format.
Decoded expressions are built through the hash-consing constructors of
``repro.ir.symbols``, the one table of expressions.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from .arrays import Array
from .nodes import Computation, LibraryCall, Loop, Node, Program
from .symbols import (Add, Call, Const, Expr, FloorDiv, Max, Min, Mod, Mul,
                      Read, Sym, const, sym)


def expr_to_dict(expr: Expr) -> Dict[str, Any]:
    """Convert an expression to a JSON-serializable dictionary."""
    if isinstance(expr, Const):
        return {"kind": "const", "value": expr.value}
    if isinstance(expr, Sym):
        return {"kind": "sym", "name": expr.name}
    if isinstance(expr, Add):
        return {"kind": "add", "terms": [expr_to_dict(t) for t in expr.terms]}
    if isinstance(expr, Mul):
        return {"kind": "mul", "factors": [expr_to_dict(f) for f in expr.factors]}
    if isinstance(expr, FloorDiv):
        return {"kind": "floordiv", "numerator": expr_to_dict(expr.numerator),
                "denominator": expr_to_dict(expr.denominator)}
    if isinstance(expr, Mod):
        return {"kind": "mod", "numerator": expr_to_dict(expr.numerator),
                "denominator": expr_to_dict(expr.denominator)}
    if isinstance(expr, Min):
        return {"kind": "min", "args": [expr_to_dict(a) for a in expr.args]}
    if isinstance(expr, Max):
        return {"kind": "max", "args": [expr_to_dict(a) for a in expr.args]}
    if isinstance(expr, Read):
        return {"kind": "read", "array": expr.array,
                "indices": [expr_to_dict(i) for i in expr.indices]}
    if isinstance(expr, Call):
        return {"kind": "call", "func": expr.func,
                "args": [expr_to_dict(a) for a in expr.args]}
    raise TypeError(f"cannot serialize expression of type {type(expr).__name__}")


def expr_from_dict(data: Dict[str, Any]) -> Expr:
    """Inverse of :func:`expr_to_dict`.

    Decoding builds through the same constructors as every other
    expression, so a decoded expression is the one instance of its
    structure (``repro.ir.symbols``): identical sub-trees across cache
    entries, and the programs built in this process, share it.
    """
    kind = data["kind"]
    if kind == "const":
        return const(data["value"])
    if kind == "sym":
        return sym(data["name"])
    if kind == "add":
        return Add.make([expr_from_dict(t) for t in data["terms"]])
    if kind == "mul":
        return Mul.make([expr_from_dict(f) for f in data["factors"]])
    if kind == "floordiv":
        return FloorDiv.make(expr_from_dict(data["numerator"]),
                             expr_from_dict(data["denominator"]))
    if kind == "mod":
        return Mod.make(expr_from_dict(data["numerator"]),
                        expr_from_dict(data["denominator"]))
    if kind == "min":
        return Min.make([expr_from_dict(a) for a in data["args"]])
    if kind == "max":
        return Max.make([expr_from_dict(a) for a in data["args"]])
    if kind == "read":
        return Read(data["array"], [expr_from_dict(i) for i in data["indices"]])
    if kind == "call":
        return Call(data["func"], [expr_from_dict(a) for a in data["args"]])
    raise ValueError(f"unknown expression kind {kind!r}")


def node_to_dict(node: Node) -> Dict[str, Any]:
    """Convert a loop-tree node to a dictionary."""
    if isinstance(node, Loop):
        return {
            "kind": "loop",
            "iterator": node.iterator,
            "start": expr_to_dict(node.start),
            "end": expr_to_dict(node.end),
            "step": expr_to_dict(node.step),
            "parallel": node.parallel,
            "vectorized": node.vectorized,
            "unroll": node.unroll,
            "tile_of": node.tile_of,
            "body": [node_to_dict(child) for child in node.body],
        }
    if isinstance(node, Computation):
        return {
            "kind": "computation",
            "name": node.name,
            "target": {"array": node.target.array,
                       "indices": [expr_to_dict(i) for i in node.target.indices]},
            "value": expr_to_dict(node.value),
        }
    if isinstance(node, LibraryCall):
        return {
            "kind": "library_call",
            "routine": node.routine,
            "outputs": list(node.outputs),
            "inputs": list(node.inputs),
            "flops": expr_to_dict(node.flop_expr),
            "metadata": dict(node.metadata),
        }
    raise TypeError(f"cannot serialize node of type {type(node).__name__}")


def node_from_dict(data: Dict[str, Any]) -> Node:
    """Inverse of :func:`node_to_dict`."""
    kind = data["kind"]
    if kind == "loop":
        return Loop(
            iterator=data["iterator"],
            start=expr_from_dict(data["start"]),
            end=expr_from_dict(data["end"]),
            step=expr_from_dict(data["step"]),
            body=[node_from_dict(child) for child in data["body"]],
            parallel=data.get("parallel", False),
            vectorized=data.get("vectorized", False),
            unroll=data.get("unroll", 1),
            tile_of=data.get("tile_of"),
        )
    if kind == "computation":
        target = Read(data["target"]["array"],
                      [expr_from_dict(i) for i in data["target"]["indices"]])
        return Computation(target, expr_from_dict(data["value"]), name=data["name"])
    if kind == "library_call":
        return LibraryCall(data["routine"], data["outputs"], data["inputs"],
                           expr_from_dict(data["flops"]), data.get("metadata"))
    raise ValueError(f"unknown node kind {kind!r}")


def program_to_dict(program: Program) -> Dict[str, Any]:
    """Convert a program to a dictionary."""
    return {
        "name": program.name,
        "parameters": list(program.parameters),
        "arrays": [
            {
                "name": arr.name,
                "shape": [expr_to_dict(dim) for dim in arr.shape],
                "dtype": arr.dtype,
                "transient": arr.transient,
            }
            for arr in program.arrays.values()
        ],
        "body": [node_to_dict(node) for node in program.body],
    }


def program_from_dict(data: Dict[str, Any]) -> Program:
    """Inverse of :func:`program_to_dict`."""
    arrays = [
        Array(name=entry["name"],
              shape=tuple(expr_from_dict(dim) for dim in entry["shape"]),
              dtype=entry.get("dtype", "float64"),
              transient=entry.get("transient", False))
        for entry in data["arrays"]
    ]
    body = [node_from_dict(node) for node in data["body"]]
    return Program(data["name"], arrays, body, data.get("parameters", []))


def program_to_json(program: Program, indent: int = 2) -> str:
    """Serialize a program to a JSON string."""
    return json.dumps(program_to_dict(program), indent=indent)


def program_from_json(text: str) -> Program:
    """Deserialize a program from a JSON string."""
    return program_from_dict(json.loads(text))
