"""The one flop counter, and the one register-pressure count.

``expr_flops``, which the cost model and the embedding both read, counts one
evaluation of a value expression, each intrinsic at its weight in
:data:`repro.ir.symbols.INTRINSICS` (index arithmetic is addressing, not
work, so a ``Read`` is a leaf); ``program_flops`` sums operations over the
*actual* iteration space for a parameter binding, which makes before/after
comparisons exact even for triangular nests.  ``register_pressure``, which
the cost model and the trace generator both read against
:data:`repro.perf.model.REGISTER_BUDGET`, counts the values one iteration
of a body holds.

Counts are static properties of the IR, so all results are immutable.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from ..ir.nodes import Computation, LibraryCall, Node, Program
from ..ir.symbols import INTRINSICS, Call, Expr, Read

__all__ = [
    "expr_flops", "computation_flops", "program_flops", "register_pressure",
]


def expr_flops(expr: Expr) -> float:
    """Arithmetic operations performed by one evaluation of ``expr``.

    An :class:`Add`/:class:`Mul`/:class:`Min`/:class:`Max` of ``n`` operands
    and a :class:`FloorDiv`/:class:`Mod` (two) cost ``n - 1``, a
    :class:`Call` its intrinsic's weight, and leaves (constants, symbols,
    array reads with whatever index arithmetic) nothing; each node adds what
    its operands cost.  Memoized on the expression asked about (a
    statement's value), not on its parts.
    """
    try:
        return expr._flops
    except AttributeError:
        pass
    flops = 0.0
    stack = [expr]
    while stack:
        part = stack.pop()
        if isinstance(part, Read):
            continue
        children = part.children()
        if isinstance(part, Call):
            flops += INTRINSICS[part.func].flops
        elif children:
            flops += len(children) - 1
        stack.extend(children)
    expr._flops = flops
    return flops


def register_pressure(body: Sequence[Node]) -> int:
    """Distinct values live in one iteration of the statements directly in
    ``body`` (each one's operands plus its result), a spill predictor."""
    return sum(len(child.reads()) + 1 for child in body
               if isinstance(child, Computation))


def computation_flops(computation: Computation) -> float:
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


def _node_flops(node: Node, env: dict) -> float:
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
                  parameters: Optional[Mapping[str, int]] = None) -> float:
    """Total arithmetic operations one run of ``program`` performs.

    Walks the loop structure numerically under ``parameters`` (exact for
    triangular and parameter-dependent bounds) without touching any data;
    loops whose body does shape-independent work are counted in O(1).
    """
    env = dict(parameters or {})
    return sum(_node_flops(node, env) for node in program.body)
