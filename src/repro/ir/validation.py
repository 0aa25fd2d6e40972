"""Structural validation of loop-nest programs.

Validation catches malformed IR early: undeclared containers, rank
mismatches, duplicate or shadowed iterators, references to unbound
symbols, statement values where a number is evaluated, calls of a function
that is not an intrinsic, and loops that do not step forward.  Every
frontend and transformation is expected to leave programs in a state that
passes :func:`validate_program`.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Mapping, Sequence, Set, Tuple

from .nodes import (ArrayAccess, Computation, LibraryCall, Loop, Node, Program,
                    read_accesses)
from .symbols import INTRINSICS, Call, Const, Expr, FloorDiv, Mod, Read


class ValidationError(ValueError):
    """Raised when a program violates structural invariants or parameters
    do not bind it; ``errors`` lists every problem found."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__(self.errors)  # the args unpickling passes back

    def __str__(self) -> str:
        return "; ".join(self.errors)


class _Evaluated:
    """The expressions evaluated as numbers that are not affine (only those
    hold a statement value or a division), with where each sits, gathered
    by the walk that visits their nodes.  Iterating lists array extents,
    then loop bounds, access indices and library-call FLOP counts, each in
    program order."""

    def __init__(self, program: Program):
        self.extents = [(f"container {array.name!r} extent", extent)
                        for array in program.arrays.values()
                        for extent in array.shape if extent.as_affine() is None]
        self.bounds: List[Tuple[str, Expr]] = []
        self.indices: List[Tuple[str, Expr]] = []
        self.flops: List[Tuple[str, Expr]] = []

    def loop(self, loop: Loop) -> None:
        for bound in (loop.start, loop.end, loop.step):
            if bound.as_affine() is None:
                self.bounds.append((f"loop {loop.iterator!r} bound", bound))

    def computation(self, computation: Computation,
                    accesses: Sequence[ArrayAccess]) -> None:
        """``accesses``: the target, then the reads in order."""
        for access in accesses:
            for index in access.indices:
                if index.as_affine() is None:
                    self.indices.append((f"computation {computation.name} "
                                         f"index of {access.array!r}", index))

    def call(self, call: LibraryCall) -> None:
        if call.flop_expr.as_affine() is None:
            self.flops.append((f"library call {call.routine} FLOP count",
                               call.flop_expr))

    def __iter__(self) -> Iterator[Tuple[str, Expr]]:
        return itertools.chain(self.extents, self.bounds, self.indices,
                               self.flops)


def _parts(expr: Expr) -> Iterator[Expr]:
    """``expr`` and its sub-expressions, innermost first."""
    for child in expr.children():
        yield from _parts(child)
    yield expr


def _unknown_calls(value: Expr) -> List[Call]:
    """The calls in a statement value (outside its subscripts, which are
    index expressions) whose function is not an intrinsic."""
    unknown = []
    stack = [value]
    while stack:
        part = stack.pop()
        if isinstance(part, Call) and part.func not in INTRINSICS:
            unknown.append(part)
        if not isinstance(part, Read):
            stack.extend(reversed(part.children()))
    return unknown


def _check_access(program: Program, access: ArrayAccess, where: str,
                  visible: Set[str], errors: List[str]) -> None:
    if access.array not in program.arrays:
        errors.append(f"{where}: access to undeclared container {access.array!r}")
        return
    declared = program.arrays[access.array]
    if declared.rank != access.rank:
        errors.append(
            f"{where}: container {access.array!r} has rank {declared.rank} "
            f"but is accessed with {access.rank} indices")
    symbols = access.free_symbols()
    if not symbols <= visible:
        errors.append(f"{where}: index uses unbound symbols "
                      f"{sorted(symbols - visible)}")


def _check_node(program: Program, node: Node, visible: Set[str],
                errors: List[str], evaluated: _Evaluated) -> None:
    """Check ``node``'s subtree in program order, appending to ``errors``
    and gathering into ``evaluated`` (module-level, not a recursive
    closure: that is a function<->cell cycle left for the collector)."""
    if isinstance(node, Loop):
        if node.iterator in visible:
            errors.append(f"loop {node.iterator!r} shadows an enclosing symbol")
        unknown = node.bound_symbols() - visible
        if unknown:
            errors.append(
                f"loop {node.iterator!r}: bounds use unbound symbols {sorted(unknown)}")
        if isinstance(node.step, Const) and node.step.value <= 0:
            errors.append(
                f"loop {node.iterator!r}: step {node.step} is not positive")
        evaluated.loop(node)
        inner = visible | {node.iterator}
        for child in node.body:
            _check_node(program, child, inner, errors, evaluated)
    elif isinstance(node, Computation):
        where = f"computation {node.name}"
        reads = read_accesses(node.value)
        evaluated.computation(node, (node.target, *reads))
        _check_access(program, node.target, where, visible, errors)
        for access in reads:
            _check_access(program, access, where, visible, errors)
        # Index symbols are checked per access; what is left of the
        # value's symbols appears outside every read.
        unknown = node.value.free_symbols() - visible
        for access in reads:
            if not unknown:
                break
            unknown -= access.free_symbols()
        if unknown:
            errors.append(f"{where}: value uses unbound symbols {sorted(unknown)}")
        errors.extend(f"{where}: {call} calls the unknown intrinsic "
                      f"{call.func!r}" for call in _unknown_calls(node.value))
    elif isinstance(node, LibraryCall):
        evaluated.call(node)
        for name in list(node.outputs) + list(node.inputs):
            if name not in program.arrays:
                errors.append(
                    f"library call {node.routine}: undeclared container {name!r}")
    else:
        errors.append(f"unexpected node type {type(node).__name__}")


def validate_program(program: Program, strict: bool = True) -> List[str]:
    """Validate ``program`` and return the list of problems found.

    With ``strict=True`` (the default) a :class:`ValidationError` is raised
    if any problem is found; otherwise the list is returned for inspection.
    """
    errors: List[str] = []
    evaluated = _Evaluated(program)

    visible_symbols = set(program.parameters)
    for node in program.body:
        _check_node(program, node, visible_symbols, errors, evaluated)
    for where, expr in evaluated:
        for part in _parts(expr):
            if isinstance(part, (Read, Call)):
                errors.append(f"{where}: {part} is a {type(part).__name__}, "
                              "not an index expression")

    if strict and errors:
        raise ValidationError(errors)
    return errors


def _gather_bindings(nodes: Sequence[Node], loops: List[Loop],
                     evaluated: _Evaluated) -> None:
    """Append every loop under ``nodes`` to ``loops`` and gather what
    ``evaluated`` holds, in program order (module-level, not a recursive
    closure)."""
    for node in nodes:
        if isinstance(node, Loop):
            loops.append(node)
            evaluated.loop(node)
            _gather_bindings(node.body, loops, evaluated)
        elif isinstance(node, Computation):
            evaluated.computation(
                node, (node.target, *read_accesses(node.value)))
        elif isinstance(node, LibraryCall):
            evaluated.call(node)


def validate_bindings(program: Program, parameters: Mapping[str, int]) -> None:
    """Raise :class:`ValidationError` unless ``parameters`` bind ``program``
    (which passes :func:`validate_program`): every symbol it uses needs a
    value, no ``//`` or ``%`` in an extent, bound, index or FLOP count
    may divide by zero through a divisor that names no iterator, and a
    step that names no iterator must be positive."""
    errors: List[str] = []
    unbound = program.used_parameters() - set(parameters)
    if unbound:
        errors.append(f"no parameters given for {sorted(unbound)} "
                      f"of {program.name!r}")
    evaluated = _Evaluated(program)
    loops: List[Loop] = []
    _gather_bindings(program.body, loops, evaluated)
    names = set(parameters) - {loop.iterator for loop in loops}
    for where, expr in evaluated:
        for part in _parts(expr):
            if (isinstance(part, (FloorDiv, Mod))
                    and part.denominator.free_symbols() <= names
                    and part.denominator.evaluate(parameters) == 0):
                errors.append(f"{where}: {part} divides by zero")
                break
    for loop in loops:
        if loop.step.free_symbols() <= names:
            try:
                step = loop.step.evaluate(parameters)
            except ZeroDivisionError:
                continue    # listed above
            if step <= 0:
                errors.append(f"loop {loop.iterator!r}: step {loop.step} "
                              f"is {step}, not positive")
    if errors:
        raise ValidationError(errors)
