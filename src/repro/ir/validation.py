"""Structural validation of loop-nest programs.

Validation catches malformed IR early: undeclared containers, rank
mismatches, duplicate or shadowed iterators, references to unbound
symbols, statement values where a number is evaluated, and loops that do
not step forward.  Every frontend and transformation is expected to leave
programs in a state that passes :func:`validate_program`.
"""

from __future__ import annotations

from typing import Iterator, List, Mapping, Sequence, Set, Tuple

from .nodes import ArrayAccess, Computation, LibraryCall, Loop, Node, Program
from .symbols import Call, Const, Expr, FloorDiv, Mod, Read


class ValidationError(ValueError):
    """Raised when a program violates structural invariants or parameters
    do not bind it; ``errors`` lists every problem found."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__(self.errors)  # the args unpickling passes back

    def __str__(self) -> str:
        return "; ".join(self.errors)


def _index_expressions(program: Program) -> Iterator[Tuple[str, Expr]]:
    """Every expression evaluated as a number that is not affine (only those
    hold a statement value or a division), with where it sits: array
    extents, loop bounds, access indices and library-call FLOP counts."""
    for array in program.arrays.values():
        for extent in array.shape:
            if extent.as_affine() is None:
                yield f"container {array.name!r} extent", extent
    for loop in program.iter_loops():
        for bound in (loop.start, loop.end, loop.step):
            if bound.as_affine() is None:
                yield f"loop {loop.iterator!r} bound", bound
    for computation in program.iter_computations():
        for access in (computation.target, *computation.reads()):
            for index in access.indices:
                if index.as_affine() is None:
                    yield (f"computation {computation.name} index of "
                           f"{access.array!r}", index)
    for call in program.library_calls():
        if call.flop_expr.as_affine() is None:
            yield f"library call {call.routine} FLOP count", call.flop_expr


def _parts(expr: Expr) -> Iterator[Expr]:
    """``expr`` and its sub-expressions, innermost first."""
    for child in expr.children():
        yield from _parts(child)
    yield expr


def validate_program(program: Program, strict: bool = True) -> List[str]:
    """Validate ``program`` and return the list of problems found.

    With ``strict=True`` (the default) a :class:`ValidationError` is raised
    if any problem is found; otherwise the list is returned for inspection.
    """
    errors: List[str] = []

    def check_access(access: ArrayAccess, where: str, visible: Set[str]) -> None:
        if access.array not in program.arrays:
            errors.append(f"{where}: access to undeclared container {access.array!r}")
            return
        declared = program.arrays[access.array]
        if declared.rank != access.rank:
            errors.append(
                f"{where}: container {access.array!r} has rank {declared.rank} "
                f"but is accessed with {access.rank} indices")
        unknown = access.free_symbols() - visible
        if unknown:
            errors.append(
                f"{where}: index uses unbound symbols {sorted(unknown)}")

    def check_node(node: Node, visible: Set[str]) -> None:
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
            inner = visible | {node.iterator}
            for child in node.body:
                check_node(child, inner)
        elif isinstance(node, Computation):
            where = f"computation {node.name}"
            check_access(node.target, where, visible)
            # Index symbols are checked per access; what is left of the
            # value's symbols appears outside every read.
            scalar_symbols = node.value.free_symbols()
            for access in node.reads():
                check_access(access, where, visible)
                scalar_symbols -= access.free_symbols()
            unknown = scalar_symbols - visible
            if unknown:
                errors.append(f"{where}: value uses unbound symbols {sorted(unknown)}")
        elif isinstance(node, LibraryCall):
            for name in list(node.outputs) + list(node.inputs):
                if name not in program.arrays:
                    errors.append(
                        f"library call {node.routine}: undeclared container {name!r}")
        else:
            errors.append(f"unexpected node type {type(node).__name__}")

    visible_symbols = set(program.parameters)
    for node in program.body:
        check_node(node, visible_symbols)
    for where, expr in _index_expressions(program):
        for part in _parts(expr):
            if isinstance(part, (Read, Call)):
                errors.append(f"{where}: {part} is a {type(part).__name__}, "
                              "not an index expression")

    if strict and errors:
        raise ValidationError(errors)
    return errors


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
    names = set(parameters) - {loop.iterator for loop in program.iter_loops()}
    for where, expr in _index_expressions(program):
        for part in _parts(expr):
            if (isinstance(part, (FloorDiv, Mod))
                    and part.denominator.free_symbols() <= names
                    and part.denominator.evaluate(parameters) == 0):
                errors.append(f"{where}: {part} divides by zero")
                break
    for loop in program.iter_loops():
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
