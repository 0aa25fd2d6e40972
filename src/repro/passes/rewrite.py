"""Expression-level rewrite passes: the COFFEE/PyOP2 optimizer playbook.

Loop-level normalization (``repro.passes.library``) reorders *iterations*;
this module rewrites the *expressions* inside them.  The pass family ports
the classic FEM assembly-kernel optimizations to the pass framework:

* :class:`ConstantPreEvaluationPass` — fold constant subexpressions and
  intrinsic calls on constant arguments at normalization time.
* :class:`FactorizationPass` — re-associate sums of products around their
  most frequent factor (``x*a + x*b`` → ``x*(a + b)``).
* :class:`LoopInvariantCodeMotionPass` — hoist subexpressions to the
  shallowest loop level where they are invariant, materializing transient
  scalar temporaries.
* :class:`CommonSubexpressionEliminationPass` — evaluate repeated
  subexpressions once per body, with a write-kill rule for soundness.
* :class:`ExpansionPass` — distribute products over sums, exposing
  per-term hoisting opportunities (the dual of factorization).

Each pass is an instrumented :class:`~repro.passes.base.Pass` reporting
``hoisted`` / ``cse_hits`` / ``flops_saved`` style counters, and the family
is composed into registry-named pipelines (``"rewrite"``,
``"a-priori+rewrite"``, ``"rewrite-licm-only"``, ...) that key the
normalization cache and are selectable everywhere pipeline names are
accepted.  Pipelines that re-associate floating-point math are registered
``bit_exact=False`` so the differential oracle compares them under a
relative tolerance.

Soundness notes: all rewriting is restricted to right-hand-side *value*
positions — index expressions and loop bounds are never touched, and
``Read`` nodes are leaves (their indices are address computation).  LICM
refuses to speculate partial intrinsics (``log``/``div``/``pow``), since a
zero-trip loop must not start raising domain errors.  Invariance facts come
from :mod:`repro.analysis.flops` and, for what a subtree writes,
:func:`repro.analysis.dataflow.node_reads_writes`.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.dataflow import node_reads_writes
from ..analysis.flops import expr_flops, expr_reads
from ..ir.arrays import Array
from ..ir.nodes import ArrayAccess, Computation, Loop, Node, Program
from ..ir.symbols import (INTRINSICS, Add, Call, Const, Expr, FloorDiv, Max,
                          Min, Mod, Mul, Read, rebuild)
from .base import ApplyOutcome, Pass
from .library import (CanonicalizeIteratorsPass, FissionSweepPass,
                      LoopNormalFormPass, ScalarExpansionPass,
                      StrideMinimizationPass, ValidatePass)
from .pipeline import FixedPoint, Pipeline
from .registry import register_pipeline

__all__ = [
    "ConstantPreEvaluationPass", "FactorizationPass",
    "LoopInvariantCodeMotionPass", "CommonSubexpressionEliminationPass",
    "ExpansionPass",
]

#: Compound expression nodes: anything that performs at least one operation.
_COMPOUND = (Add, Mul, FloorDiv, Mod, Min, Max, Call)

#: Partial intrinsics whose domain errors must not be introduced by
#: speculative (hoisted) evaluation.
_UNSAFE_SPECULATION = frozenset({"log", "div", "pow"})


# ---------------------------------------------------------------------------
# Expression helpers (value positions only — Read is a leaf)
# ---------------------------------------------------------------------------


def _map_value(expr: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """Bottom-up rewrite of a value expression; never descends into Read
    indices."""
    if isinstance(expr, Read) or not expr.children():
        return fn(expr)
    children = [_map_value(child, fn) for child in expr.children()]
    return fn(rebuild(expr, children))


def _count_occurrences(expr: Expr, target: Expr) -> int:
    if expr == target:
        return 1
    if isinstance(expr, Read):
        return 0
    return sum(_count_occurrences(child, target) for child in expr.children())


def _replace_occurrences(expr: Expr, target: Expr, replacement: Expr
                         ) -> Tuple[Expr, int]:
    """Replace every occurrence of ``target`` in value positions."""
    if expr == target:
        return replacement, 1
    if isinstance(expr, Read) or not expr.children():
        return expr, 0
    total = 0
    children = []
    for child in expr.children():
        new_child, count = _replace_occurrences(child, target, replacement)
        total += count
        children.append(new_child)
    if total == 0:
        return expr, 0
    return rebuild(expr, children), total


def _replace_in_subtree(node: Node, target: Expr, replacement: Expr) -> int:
    """Replace ``target`` in every RHS of the subtree; returns occurrences."""
    total = 0
    for comp in node.iter_computations():
        new_value, count = _replace_occurrences(comp.value, target, replacement)
        if count:
            comp.value = new_value
            total += count
    return total


def _contains_unsafe_call(expr: Expr) -> bool:
    if isinstance(expr, Call) and expr.func in _UNSAFE_SPECULATION:
        return True
    if isinstance(expr, Read):
        return False
    return any(_contains_unsafe_call(child) for child in expr.children())


def _fresh_name(program: Program, base: str) -> str:
    index = 0
    while f"{base}{index}" in program.arrays:
        index += 1
    return f"{base}{index}"


def _index_of(body: Sequence[Node], node: Node) -> int:
    for position, candidate in enumerate(body):
        if candidate is node:
            return position
    raise ValueError("node is not a direct child of the body")


# ---------------------------------------------------------------------------
# Constant pre-evaluation
# ---------------------------------------------------------------------------


class ConstantPreEvaluationPass(Pass):
    """Fold constant arithmetic and intrinsic calls on constant arguments.

    Rebuilding through the ``make`` constructors folds constant
    ``Add``/``Mul``/``Min``/``Max``/``FloorDiv``/``Mod`` subtrees; on top of
    that, intrinsic calls whose arguments are all constants are evaluated
    with the interpreter's intrinsic table
    (:data:`repro.ir.symbols.INTRINSICS`), so folding is bit-exact with
    runtime evaluation.  Non-finite results are left unfolded (they
    would not survive JSON serialization in the caches).
    """

    name = "pre-evaluate"

    def apply(self, program: Program) -> ApplyOutcome:
        counters = {"exprs_folded": 0.0, "flops_saved": 0.0}
        changed = False

        def fold(expr: Expr) -> Expr:
            if not (isinstance(expr, Call)
                    and all(isinstance(arg, Const) for arg in expr.args)):
                return expr
            intrinsic = INTRINSICS.get(expr.func)
            if intrinsic is None:
                return expr
            try:
                value = intrinsic.evaluate(*[arg.value for arg in expr.args])
            except (ArithmeticError, ValueError, OverflowError):
                return expr
            if isinstance(value, float) and not math.isfinite(value):
                return expr
            counters["exprs_folded"] += 1
            return Const(value)

        for comp in program.iter_computations():
            new_value = _map_value(comp.value, fold)
            if new_value != comp.value:
                counters["flops_saved"] += max(
                    0, expr_flops(comp.value) - expr_flops(new_value))
                comp.value = new_value
                changed = True
        return changed, counters


# ---------------------------------------------------------------------------
# Factorization (re-association of sums of products)
# ---------------------------------------------------------------------------


class FactorizationPass(Pass):
    """Factor sums of products around their most frequent non-constant
    factor: ``x*a + x*b + c`` becomes ``x*(a + b) + c``.

    Factoring re-associates floating-point arithmetic, so pipelines using
    this pass must be registered ``bit_exact=False``.
    """

    name = "factorize"

    def apply(self, program: Program) -> ApplyOutcome:
        counters = {"factored": 0.0, "flops_saved": 0.0}
        changed = False

        def factor(expr: Expr) -> Expr:
            if isinstance(expr, Add):
                return _factor_add(expr, counters)
            return expr

        for comp in program.iter_computations():
            new_value = _map_value(comp.value, factor)
            if new_value != comp.value:
                comp.value = new_value
                changed = True
        return changed, counters


def _factor_add(add: Add, counters: Dict[str, float]) -> Expr:
    terms: List[Expr] = list(add.terms)
    while True:
        factor_lists = [list(term.factors) if isinstance(term, Mul) else [term]
                        for term in terms]
        counts: Dict[Expr, int] = {}
        for factors in factor_lists:
            seen: List[Expr] = []
            for factor in factors:
                if isinstance(factor, Const) or factor in seen:
                    continue
                seen.append(factor)
                counts[factor] = counts.get(factor, 0) + 1
        candidates = [f for f, n in counts.items() if n >= 2]
        if not candidates:
            break
        best = max(candidates,
                   key=lambda f: (counts[f], expr_flops(f), str(f)))
        with_indices = [i for i, factors in enumerate(factor_lists)
                        if best in factors]
        rests: List[Expr] = []
        for i in with_indices:
            remaining = list(factor_lists[i])
            remaining.remove(best)
            rests.append(Mul.make(remaining) if remaining else Const(1))
        inner = Add.make(rests)
        if isinstance(inner, Add):
            inner = _factor_add(inner, counters)
        combined = Mul.make([best, inner])
        counters["factored"] += 1
        counters["flops_saved"] += len(with_indices) - 1
        rebuilt: List[Expr] = []
        placed = False
        for i, term in enumerate(terms):
            if i in with_indices:
                if not placed:
                    rebuilt.append(combined)
                    placed = True
                continue
            rebuilt.append(term)
        terms = rebuilt
        if len(terms) == 1:
            break
    if len(terms) == 1:
        return terms[0]
    return Add.make(terms)


# ---------------------------------------------------------------------------
# Expansion (distribution of products over sums)
# ---------------------------------------------------------------------------


class ExpansionPass(Pass):
    """Distribute products over sums: ``x*(a + b)`` becomes ``x*a + x*b``.

    The dual of factorization — it *increases* the operation count but
    flattens expressions into pure sums of products, each term of which can
    then be hoisted or eliminated independently.  Expansion is capped so a
    product of many sums cannot blow up the IR.
    """

    name = "expand"

    #: Do not expand a product into more than this many terms.
    max_terms = 64

    def apply(self, program: Program) -> ApplyOutcome:
        counters = {"expanded": 0.0, "terms_created": 0.0}
        changed = False

        def expand(expr: Expr) -> Expr:
            if not isinstance(expr, Mul):
                return expr
            term_lists = [list(factor.terms) if isinstance(factor, Add)
                          else [factor] for factor in expr.factors]
            total = 1
            for options in term_lists:
                total *= len(options)
            if total == 1 or total > self.max_terms:
                return expr
            combos: List[List[Expr]] = [[]]
            for options in term_lists:
                combos = [combo + [option]
                          for combo in combos for option in options]
            counters["expanded"] += 1
            counters["terms_created"] += total
            return Add.make([Mul.make(combo) for combo in combos])

        for comp in program.iter_computations():
            new_value = _map_value(comp.value, expand)
            if new_value != comp.value:
                comp.value = new_value
                changed = True
        return changed, counters


# ---------------------------------------------------------------------------
# Loop-invariant code motion
# ---------------------------------------------------------------------------


class LoopInvariantCodeMotionPass(Pass):
    """Hoist loop-invariant subexpressions to the shallowest valid level.

    For every statement, maximal compound subexpressions of the RHS are
    hoisted to the outermost enclosing loop level where (a) no loop at or
    below that level binds an iterator the expression uses and (b) no array
    the expression reads is written anywhere in that level's subtree.  The
    expression is materialized into a fresh transient scalar immediately
    before the hoisted-from loop, and *every* occurrence in that loop's
    subtree is replaced by the temporary.  Hoisted definitions are then
    recursively considered for further hoisting, so one run reaches the
    fixed point (the pass is idempotent).

    Evaluating an identical expression once instead of per iteration is
    bit-exact, so LICM-only pipelines stay ``bit_exact=True``.
    """

    name = "licm"

    def apply(self, program: Program) -> ApplyOutcome:
        counters = {"hoisted": 0.0, "hoisted_uses": 0.0, "flops_saved": 0.0}
        changed = False

        def boundary_for(expr: Expr, chain: List[Loop]) -> Optional[int]:
            if _contains_unsafe_call(expr):
                return None
            symbols = expr.free_symbols()
            innermost_used = 0
            for level, loop in enumerate(chain):
                if loop.iterator in symbols:
                    innermost_used = level + 1
            if innermost_used >= len(chain):
                return None
            reads = expr_reads(expr)
            for level in range(innermost_used, len(chain)):
                if not (reads & node_reads_writes(chain[level])[1]):
                    return level
            return None

        def find_candidate(expr: Expr, chain: List[Loop]
                           ) -> Optional[Tuple[Expr, int]]:
            """First maximal hoistable subexpression, in traversal order."""
            if isinstance(expr, _COMPOUND):
                level = boundary_for(expr, chain)
                if level is not None:
                    return expr, level
            if isinstance(expr, Read):
                return None
            for child in expr.children():
                found = find_candidate(child, chain)
                if found is not None:
                    return found
            return None

        def hoist_from(comp: Computation, chain: List[Loop]) -> None:
            nonlocal changed
            while chain:
                found = find_candidate(comp.value, chain)
                if found is None:
                    return
                expr, level = found
                target_loop = chain[level]
                parent_body = chain[level - 1].body if level else program.body
                temp = _fresh_name(program, "__licm")
                program.add_array(Array(temp, (), "float64", transient=True))
                uses = _replace_in_subtree(target_loop, expr, Read(temp, ()))
                definition = Computation(ArrayAccess(temp, ()), expr)
                parent_body.insert(_index_of(parent_body, target_loop),
                                   definition)
                changed = True
                counters["hoisted"] += 1
                counters["hoisted_uses"] += uses
                # Static flops removed from the loop body per iteration (the
                # hoisted definition runs once per iteration of the *outer*
                # level instead); dynamic savings scale with the trip count.
                counters["flops_saved"] += expr_flops(expr) * uses
                # The materialized definition may itself be invariant in the
                # remaining outer loops — hoist it the rest of the way now.
                hoist_from(definition, chain[:level])

        def process_body(body: Sequence[Node], chain: List[Loop]) -> None:
            for node in list(body):
                if isinstance(node, Loop):
                    process_body(node.body, chain + [node])
                elif isinstance(node, Computation) and chain:
                    hoist_from(node, chain)

        process_body(program.body, [])
        return changed, counters


# ---------------------------------------------------------------------------
# Common-subexpression elimination
# ---------------------------------------------------------------------------


class CommonSubexpressionEliminationPass(Pass):
    """Evaluate repeated compound subexpressions once per body.

    Within each statement list, occurrences of an expression form a group
    that is *killed* when a statement (or a nested loop / library call)
    writes an array the expression reads; occurrences in the killing
    statement itself still belong to the group, because a statement's RHS
    is evaluated before its write.  Groups of two or more occurrences are
    materialized into a transient scalar defined immediately before the
    group's first statement, largest expression first, until no group
    remains.  Replacing equal-valued evaluations is bit-exact.
    """

    name = "cse"

    def apply(self, program: Program) -> ApplyOutcome:
        counters = {"cse_hits": 0.0, "cse_temps": 0.0, "flops_saved": 0.0}
        changed = False

        def collect(expr: Expr, into: Dict[Expr, int]) -> None:
            if isinstance(expr, Read):
                return
            if isinstance(expr, _COMPOUND):
                into[expr] = into.get(expr, 0) + 1
            for child in expr.children():
                collect(child, into)

        def find_best(body: Sequence[Node]
                      ) -> Optional[Tuple[Expr, List[int]]]:
            live: Dict[Expr, List[int]] = {}
            groups: List[Tuple[Expr, List[int]]] = []

            def kill(killed_arrays: frozenset) -> None:
                for expr in list(live):
                    if expr_reads(expr) & killed_arrays:
                        groups.append((expr, live.pop(expr)))

            for position, node in enumerate(body):
                if isinstance(node, Computation):
                    per_stmt: Dict[Expr, int] = {}
                    collect(node.value, per_stmt)
                    for expr, count in per_stmt.items():
                        live.setdefault(expr, []).extend([position] * count)
                    kill(frozenset({node.target.array}))
                else:
                    kill(node_reads_writes(node)[1])
            groups.extend(live.items())
            eligible = [(expr, positions) for expr, positions in groups
                        if len(positions) >= 2]
            if not eligible:
                return None
            return max(eligible,
                       key=lambda g: (expr_flops(g[0]), len(g[1]), str(g[0])))

        def process_body(body) -> None:
            nonlocal changed
            while True:
                best = find_best(body)
                if best is None:
                    break
                expr, positions = best
                temp = _fresh_name(program, "__cse")
                program.add_array(Array(temp, (), "float64", transient=True))
                replacement = Read(temp, ())
                hits = 0
                for position in sorted(set(positions)):
                    statement = body[position]
                    new_value, count = _replace_occurrences(
                        statement.value, expr, replacement)
                    statement.value = new_value
                    hits += count
                body.insert(min(positions),
                            Computation(ArrayAccess(temp, ()), expr))
                changed = True
                counters["cse_temps"] += 1
                counters["cse_hits"] += hits
                counters["flops_saved"] += expr_flops(expr) * (hits - 1)
            for node in body:
                if isinstance(node, Loop):
                    process_body(node.body)

        process_body(program.body)
        return changed, counters


# ---------------------------------------------------------------------------
# Pipeline registrations
# ---------------------------------------------------------------------------


def _rewrite_stages() -> List[Pass]:
    # Factorize before LICM/CSE: factoring exposes invariant factors
    # (``x[i]*b + x[i]*c`` → ``x[i]*(b+c)`` with hoistable ``b+c``), and
    # running it first keeps the composition idempotent — a second run finds
    # nothing new to factor or hoist.
    return [ConstantPreEvaluationPass(), FactorizationPass(),
            LoopInvariantCodeMotionPass(),
            CommonSubexpressionEliminationPass()]


@register_pipeline("rewrite", bit_exact=False)
def _rewrite_pipeline() -> Pipeline:
    """The full expression-rewrite family (factorization re-associates)."""
    return Pipeline("rewrite", _rewrite_stages() + [ValidatePass()])


@register_pipeline("rewrite-licm-only", bit_exact=True)
def _rewrite_licm_only() -> Pipeline:
    """Hoisting alone: evaluates identical expressions once — bit-exact."""
    return Pipeline("rewrite-licm-only",
                    [LoopInvariantCodeMotionPass(), ValidatePass()])


@register_pipeline("rewrite-cse-only", bit_exact=True)
def _rewrite_cse_only() -> Pipeline:
    """CSE alone: evaluates identical expressions once — bit-exact."""
    return Pipeline("rewrite-cse-only",
                    [CommonSubexpressionEliminationPass(), ValidatePass()])


@register_pipeline("rewrite-expand", bit_exact=False)
def _rewrite_expand() -> Pipeline:
    """Expansion-based variant: distribute, then hoist/eliminate per term."""
    return Pipeline("rewrite-expand",
                    [ConstantPreEvaluationPass(), ExpansionPass(),
                     LoopInvariantCodeMotionPass(),
                     CommonSubexpressionEliminationPass(), ValidatePass()])


@register_pipeline("a-priori+rewrite", bit_exact=False)
def _a_priori_rewrite() -> Pipeline:
    """Loop-level normalization and expression rewriting, to a fixed point.

    The families feed each other — LICM temporaries become scalar-expansion
    candidates, fission separates conflicting writes and unlocks further
    hoisting — so the stages iterate as one fixed-point group; convergence
    of the group is what makes the combined pipeline idempotent.
    """
    return Pipeline("a-priori+rewrite", [
        FixedPoint([LoopNormalFormPass(), ScalarExpansionPass(),
                    FissionSweepPass(), ConstantPreEvaluationPass(),
                    FactorizationPass(), LoopInvariantCodeMotionPass(),
                    CommonSubexpressionEliminationPass(),
                    StrideMinimizationPass(), CanonicalizeIteratorsPass()],
                   max_iterations=10),
        ValidatePass(),
    ])
