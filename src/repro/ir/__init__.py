"""Symbolic loop-nest intermediate representation.

This package implements the lifted symbolic representation described in
Section 3 of the paper: programs are trees of loops and computations over
symbolically-shaped arrays, with iterators, domains, and accesses expressed
in a small symbolic expression language.
"""

from .arrays import DTYPES, Array, array, scalar
from .builder import ProgramBuilder
from .nodes import Computation, LibraryCall, Loop, Node, Program
from .printer import loop_signature, to_pseudocode, to_tree
from .serialization import (expr_from_dict, expr_to_dict, node_from_dict,
                            node_to_dict, program_from_dict, program_from_json,
                            program_to_dict, program_to_json)
from .symbols import (Add, Call, Const, Expr, FloorDiv, Max, Min, Mod, Mul,
                      Read, Sym, as_expr, call, const, maximum, minimum, read,
                      sym)
from .validation import ValidationError, validate_program

__all__ = [
    "Array", "array", "scalar", "DTYPES",
    "ProgramBuilder",
    "Computation", "LibraryCall", "Loop", "Node", "Program",
    "loop_signature", "to_pseudocode", "to_tree",
    "expr_from_dict", "expr_to_dict", "node_from_dict", "node_to_dict",
    "program_from_dict", "program_from_json", "program_to_dict", "program_to_json",
    "Add", "Call", "Const", "Expr", "FloorDiv", "Max", "Min", "Mod", "Mul",
    "Read", "Sym", "as_expr", "call", "const", "maximum", "minimum", "read", "sym",
    "ValidationError", "validate_program",
]
