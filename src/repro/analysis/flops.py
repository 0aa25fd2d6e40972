"""Flop counting and invariance facts for the expression-rewrite passes.

The rewrite family (``repro.passes.rewrite``) needs two kinds of answers:

* **How much work does an expression / program perform?**  ``expr_flops``
  counts the arithmetic operations of a single evaluation of a value
  expression (index arithmetic is addressing, not floating-point work, so
  ``Read`` is a leaf); ``program_flops`` walks the loop structure and sums
  operations over the *actual* iteration space for a parameter binding,
  which makes before/after comparisons exact even for triangular nests.

* **What would an enclosing loop change about an expression?**
  ``expr_reads`` collects the arrays a value expression loads from (what a
  subtree stores to is :func:`repro.analysis.dataflow.node_reads_writes`);
  an expression is invariant in a loop iff the loop's iterator is not among
  its free symbols and none of its read arrays is written in the loop body.

Counts are static properties of the IR, so all results are immutable.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..ir.nodes import Computation, LibraryCall, Node, Program
from ..ir.symbols import (Add, Call, Const, Expr, FloorDiv, Max, Min, Mod,
                          Mul, Read, Sym)

__all__ = [
    "expr_flops", "expr_reads", "computation_flops", "program_flops",
]


def expr_flops(expr: Expr) -> int:
    """Arithmetic operations performed by one evaluation of ``expr``.

    An n-ary :class:`Add`/:class:`Mul`/:class:`Min`/:class:`Max` costs
    ``n - 1`` operations, every intrinsic :class:`Call` costs one plus its
    arguments, and leaves (constants, symbols, array reads) cost nothing —
    index expressions inside a ``Read`` are address computation, not
    floating-point work.
    """
    if isinstance(expr, (Const, Sym, Read)):
        return 0
    if isinstance(expr, Add):
        return (len(expr.terms) - 1) + sum(expr_flops(t) for t in expr.terms)
    if isinstance(expr, Mul):
        return (len(expr.factors) - 1) + sum(expr_flops(f) for f in expr.factors)
    if isinstance(expr, (FloorDiv, Mod)):
        return 1 + expr_flops(expr.numerator) + expr_flops(expr.denominator)
    if isinstance(expr, (Min, Max, Call)):
        args = expr.args
        base = 1 if isinstance(expr, Call) else max(0, len(args) - 1)
        return base + sum(expr_flops(a) for a in args)
    raise TypeError(f"unsupported expression node: {type(expr).__name__}")


def expr_reads(expr: Expr) -> frozenset:
    """Names of the arrays a value expression loads from.

    Index expressions never contain reads in this IR, so the collector does
    not descend into them.
    """
    if isinstance(expr, Read):
        return frozenset({expr.array})
    out = frozenset()
    for child in expr.children():
        if isinstance(child, Read):
            out |= frozenset({child.array})
        else:
            out |= expr_reads(child)
    return out


def computation_flops(computation: Computation) -> int:
    """Operations one execution of a statement performs (its RHS)."""
    return expr_flops(computation.value)


def _flop_sensitivity(node: Node) -> frozenset:
    """Symbols the flop count of ``node`` depends on (seen from its parent)."""
    if isinstance(node, Computation):
        return frozenset()
    if isinstance(node, LibraryCall):
        return node.flop_expr.free_symbols()
    sensitivity = set()
    for child in node.body:
        sensitivity |= _flop_sensitivity(child)
    sensitivity.discard(node.iterator)
    sensitivity |= node.start.free_symbols()
    sensitivity |= node.end.free_symbols()
    sensitivity |= node.step.free_symbols()
    return frozenset(sensitivity)


def _node_flops(node: Node, env: dict) -> int:
    if isinstance(node, Computation):
        return computation_flops(node)
    if isinstance(node, LibraryCall):
        return int(node.flop_expr.evaluate(env))
    start = int(node.start.evaluate(env))
    end = int(node.end.evaluate(env))
    step = int(node.step.evaluate(env))
    trips = len(range(start, end, step)) if step != 0 else 0
    if trips == 0:
        return 0
    varying = set()
    for child in node.body:
        varying |= _flop_sensitivity(child)
    if node.iterator not in varying:
        # Every iteration performs the same work: count one, multiply.
        env = dict(env)
        env[node.iterator] = start
        return trips * sum(_node_flops(child, env) for child in node.body)
    total = 0
    env = dict(env)
    for value in range(start, end, step):
        env[node.iterator] = value
        total += sum(_node_flops(child, env) for child in node.body)
    return total


def program_flops(program: Program,
                  parameters: Optional[Mapping[str, int]] = None) -> int:
    """Total arithmetic operations one run of ``program`` performs.

    Walks the loop structure numerically under ``parameters`` (exact for
    triangular and parameter-dependent bounds) without touching any data;
    loops whose body does shape-independent work are counted in O(1).
    """
    env = dict(parameters or {})
    return sum(_node_flops(node, env) for node in program.body)
