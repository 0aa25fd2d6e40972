"""Structural validation of loop-nest programs.

Validation catches malformed IR early: undeclared containers, rank
mismatches, duplicate or shadowed iterators, and references to unbound
symbols.  Every frontend and transformation is expected to leave programs
in a state that passes :func:`validate_program`.
"""

from __future__ import annotations

from typing import List, Set

from .nodes import ArrayAccess, Computation, LibraryCall, Loop, Node, Program


class ValidationError(Exception):
    """Raised when a program violates structural invariants."""

    def __init__(self, errors: List[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


def validate_program(program: Program, strict: bool = True) -> List[str]:
    """Validate ``program`` and return the list of problems found.

    With ``strict=True`` (the default) a :class:`ValidationError` is raised
    if any problem is found; otherwise the list is returned for inspection.
    """
    errors: List[str] = []
    iterator_names: Set[str] = set()

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
            iterator_names.add(node.iterator)
            unknown = node.bound_symbols() - visible
            if unknown:
                errors.append(
                    f"loop {node.iterator!r}: bounds use unbound symbols {sorted(unknown)}")
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

    if strict and errors:
        raise ValidationError(errors)
    return errors
