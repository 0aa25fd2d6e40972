"""Delta-debugging shrinker for divergent or crashing fuzz programs.

Given a failing :class:`~repro.fuzz.generator.GeneratedProgram` and the
:class:`~repro.fuzz.oracle.FailureSpec` describing *how* it fails, the
minimizer repeatedly applies structure-removing rewrites and keeps each
candidate only if it still validates, still executes cleanly on the
reference interpreter, and still fails the oracle in exactly the same way
(same stage, same pipeline/scheduler, same kind, same exception type for
crashes — see :func:`~repro.fuzz.oracle.reproduces_failure`).

Shrinking passes, iterated to a fixed point:

* **delete** — remove one statement or an entire loop (deepest first, so
  inner structure disappears before the scaffolding around it);
* **unwrap** — replace a loop by its body with the iterator substituted by
  the loop's start expression (turns ``for i: S(i)`` into ``S(start)``);
* **simplify** — replace a statement's value expression with one of the
  reads it contains, or with the constant ``1.0``;
* **shrink** — lower concrete parameter bindings toward 2 (halving, then
  decrementing), which shrinks every array and trip count at once;
* **prune** — drop containers no remaining statement touches.

The result is typically a handful of statements that can be pasted into a
regression test and replayed with ``python -m repro.fuzz replay``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..api import Session
from ..ir.nodes import Computation, Loop, Program, substitute_symbols
from ..ir.serialization import program_to_dict
from ..ir.symbols import const
from ..ir.validation import validate_program
from .generator import GeneratedProgram
from .oracle import FailureSpec, reproduces_failure

Path = Tuple[int, ...]


@dataclass
class MinimizationResult:
    """Outcome of one minimization run."""

    original: GeneratedProgram
    program: Program
    parameters: Dict[str, int]
    spec: FailureSpec
    rounds: int = 0
    #: Number of candidate programs evaluated against the oracle predicate.
    tests: int = 0
    #: Names of the rewrites that were accepted, in order.
    steps: List[str] = field(default_factory=list)

    @property
    def statements(self) -> int:
        return sum(1 for _ in self.program.iter_computations()) + len(
            self.program.library_calls())

    @property
    def original_statements(self) -> int:
        return sum(1 for _ in self.original.program.iter_computations()) + len(
            self.original.program.library_calls())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.original.seed,
            "size_class": self.original.size_class,
            "spec": self.spec.to_dict(),
            "parameters": dict(self.parameters),
            "program": program_to_dict(self.program),
            "rounds": self.rounds,
            "tests": self.tests,
            "steps": list(self.steps),
            "statements": self.statements,
            "original_statements": self.original_statements,
        }


# -- structural helpers ------------------------------------------------------------


def _paths(program: Program) -> List[Tuple[Path, Any]]:
    """All body nodes in pre-order as (path, node); path indexes body lists."""
    out: List[Tuple[Path, Any]] = []

    def walk(body: List[Any], prefix: Path) -> None:
        for index, node in enumerate(body):
            path = prefix + (index,)
            out.append((path, node))
            if isinstance(node, Loop):
                walk(node.body, path)

    walk(program.body, ())
    return out


def _owner(program: Program, path: Path) -> List[Any]:
    """The body list that directly contains the node at ``path``."""
    body = program.body
    for index in path[:-1]:
        body = body[index].body
    return body


def _prune_containers(program: Program) -> Optional[Program]:
    """Drop arrays nothing references; None when nothing can be pruned."""
    used = set()
    for comp in program.iter_computations():
        used |= comp.accessed_arrays()
    for call in program.library_calls():
        used |= set(call.outputs) | set(call.inputs)
    keep = [arr for name, arr in program.arrays.items() if name in used]
    if len(keep) == len(program.arrays):
        return None
    return Program(program.name, keep, program.body, program.parameters)


# -- candidate edits ---------------------------------------------------------------


def _delete_candidates(program: Program):
    """Deepest-first single-node deletions."""
    paths = sorted((path for path, _ in _paths(program)),
                   key=len, reverse=True)
    for path in paths:
        clone = program.copy()
        body = _owner(clone, path)
        del body[path[-1]]
        yield f"delete@{'.'.join(map(str, path))}", clone


def _unwrap_candidates(program: Program):
    """Replace each loop by its body at ``iterator = start``."""
    for path, node in _paths(program):
        if not isinstance(node, Loop):
            continue
        clone = program.copy()
        body = _owner(clone, path)
        loop = body[path[-1]]
        for child in loop.body:
            substitute_symbols(child, {loop.iterator: loop.start})
        body[path[-1]:path[-1] + 1] = list(loop.body)
        yield f"unwrap@{loop.iterator}", clone


def _simplify_candidates(program: Program):
    """Replace statement values with contained reads, then with 1.0."""
    for path, node in _paths(program):
        if not isinstance(node, Computation):
            continue
        replacements = list(node.reads()[:3])
        replacements.append(const(1.0))
        for replacement in replacements:
            if replacement == node.value:
                continue
            clone = program.copy()
            body = _owner(clone, path)
            target = body[path[-1]]
            body[path[-1]] = Computation(target.target, replacement,
                                         name=target.name)
            yield f"simplify@{node.name}", clone


def _shrunk_bindings(parameters: Mapping[str, int]):
    """Per-parameter value reductions: halve first, then decrement."""
    for name in sorted(parameters):
        value = parameters[name]
        for smaller in (max(2, value // 2), value - 1):
            if 2 <= smaller < value:
                yield f"shrink@{name}={smaller}", dict(parameters,
                                                       **{name: smaller})


# -- driver ------------------------------------------------------------------------


def minimize_program(generated: GeneratedProgram, spec: FailureSpec, *,
                     session: Optional[Session] = None,
                     exec_seed: int = 0,
                     max_rounds: int = 10,
                     max_tests: int = 2000) -> MinimizationResult:
    """Shrink ``generated`` while it keeps failing exactly per ``spec``.

    ``session`` should be the session the failure was observed on (or one
    configured identically); a fresh default session is built otherwise.
    The returned program is guaranteed to still reproduce the failure.
    """
    session = session or Session()
    result = MinimizationResult(original=generated,
                                program=generated.program.copy(),
                                parameters=dict(generated.parameters),
                                spec=spec)

    def still_fails(candidate: Program,
                    bindings: Mapping[str, int]) -> bool:
        if result.tests >= max_tests:
            return False
        result.tests += 1
        try:
            validate_program(candidate, strict=True)
        except Exception:  # noqa: BLE001 - malformed shrink, reject
            return False
        return reproduces_failure(session, candidate, bindings, spec,
                                  exec_seed=exec_seed)

    if not still_fails(result.program, result.parameters):
        raise ValueError(
            f"program {generated.name!r} does not reproduce {spec}; "
            "nothing to minimize")
    result.tests = 1  # the baseline check above

    for _ in range(max_rounds):
        result.rounds += 1
        progress = False
        # Structural passes restart whenever an edit lands, because paths
        # into the old program are stale after any acceptance.
        for candidates in (_delete_candidates, _unwrap_candidates,
                           _simplify_candidates):
            changed = True
            while changed and result.tests < max_tests:
                changed = False
                for step, candidate in candidates(result.program):
                    if not candidate.body:
                        continue
                    if still_fails(candidate, result.parameters):
                        result.program = candidate
                        result.steps.append(step)
                        progress = changed = True
                        break
        for step, bindings in _shrunk_bindings(result.parameters):
            if still_fails(result.program, bindings):
                result.parameters = bindings
                result.steps.append(step)
                progress = True
        pruned = _prune_containers(result.program)
        if pruned is not None and still_fails(pruned, result.parameters):
            result.program = pruned
            result.steps.append("prune")
            progress = True
        if not progress or result.tests >= max_tests:
            break
    return result
