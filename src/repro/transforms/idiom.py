"""BLAS idiom detection and replacement.

The daisy scheduler seeds its database with an optimization recipe for every
loop nest corresponding to a BLAS-3 kernel: the nest is replaced by a call to
the matching optimized library routine (Section 4, "Seeding a Scheduling
Database").  Detection operates on *normalized* nests, which is exactly why
normalization matters here — without it, the lifting of BLAS-3 kernels fails
on several benchmarks (Section 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..analysis.affine import decompose_access
from ..ir.nodes import Computation, LibraryCall, Loop, Program
from ..ir.serialization import node_to_dict
from ..ir.symbols import Expr, Mul, Read
from .base import Transformation, TransformationError, get_nest


@dataclass(frozen=True)
class BlasMatch:
    """Result of matching a loop nest against a BLAS kernel pattern."""

    routine: str
    output: str
    inputs: Tuple[str, ...]
    #: Iterators playing the (row, column, contraction) roles.
    roles: Tuple[str, ...]


def _flatten_product(expr: Expr) -> List[Expr]:
    if isinstance(expr, Mul):
        out: List[Expr] = []
        for factor in expr.factors:
            out.extend(_flatten_product(factor))
        return out
    return [expr]


def _addends(expr: Expr) -> List[Expr]:
    from ..ir.symbols import Add
    if isinstance(expr, Add):
        out: List[Expr] = []
        for term in expr.terms:
            out.extend(_addends(term))
        return out
    return [expr]


def match_blas3(nest: Loop) -> Optional[BlasMatch]:
    """Match a normalized nest against the matrix-multiply family.

    The pattern recognized is a 3-deep perfectly nested band whose innermost
    body is a single reduction computation of the form::

        C[f(i), g(j)] = C[f(i), g(j)] + (scalars...) * A[...] * B[...]

    where the two matrix reads each use the contraction iterator and one of
    the two output iterators.  The routine is classified as ``syrk`` when both
    reads come from the same container, ``gemm`` otherwise.
    """
    band = nest.perfectly_nested_band()
    if len(band) != 3:
        return None
    innermost = band[-1]
    comps = [node for node in innermost.body if isinstance(node, Computation)]
    if len(comps) != 1 or len(innermost.body) != 1:
        return None
    comp = comps[0]
    if not comp.is_reduction():
        return None

    iterators = [loop.iterator for loop in band]
    target = decompose_access(comp.target, iterators, True)
    if not target.affine or len(target.indices) != 2:
        return None
    target_iters = {name for index in target.indices for name in index.iterator_names()}
    if len(target_iters) != 2:
        return None
    contraction = [it for it in iterators if it not in target_iters]
    if len(contraction) != 1:
        return None
    contraction_iter = contraction[0]

    # RHS must be target + sum of products of reads/scalars where the matrix
    # reads use (row, contraction) and (contraction, column).
    addends = _addends(comp.value)
    target_reads = [a for a in addends
                    if isinstance(a, Read) and a.array == comp.target.array]
    others = [a for a in addends if a not in target_reads]
    if len(target_reads) != 1 or not others:
        return None

    matrix_reads: List[Read] = []
    for addend in others:
        for factor in _flatten_product(addend):
            if isinstance(factor, Read) and factor.indices:
                matrix_reads.append(factor)
    if len(matrix_reads) < 2:
        return None

    uses_contraction = []
    for read_node in matrix_reads:
        acc = decompose_access(
            type(comp.target)(read_node.array, read_node.indices), iterators, False)
        if not acc.affine:
            return None
        used = {name for index in acc.indices for name in index.iterator_names()}
        if contraction_iter in used:
            uses_contraction.append(read_node)
    if len(uses_contraction) < 2:
        return None

    input_arrays = tuple(sorted({read_node.array for read_node in uses_contraction}))
    routine = "syrk" if len(input_arrays) == 1 else "gemm"
    if routine == "gemm" and len(uses_contraction) > 2:
        routine = "syr2k"

    row_col = [it for it in iterators if it in target_iters]
    return BlasMatch(routine=routine, output=comp.target.array,
                     inputs=input_arrays,
                     roles=(row_col[0], row_col[1], contraction_iter))


def blas_flop_expr(nest: Loop, match: BlasMatch) -> Expr:
    """2 * product of band trip counts — the FLOP count of the contraction.

    Triangular nests (syrk/syr2k) have inner bounds that reference outer
    iterators; those iterators are replaced by half of their own extent so
    that the result is a closed-form expression over size parameters only.
    """
    from ..ir.symbols import FloorDiv, const

    flops: Expr = const(2)
    substitution = {}
    for loop in nest.perfectly_nested_band():
        count = loop.symbolic_trip_count().substitute(substitution)
        flops = flops * count
        substitution[loop.iterator] = FloorDiv.make(
            loop.end.substitute(substitution), 2)
    return flops


def build_library_call(nest: Loop, match: BlasMatch) -> LibraryCall:
    """Create the library-call node replacing a matched nest.

    The original nest is preserved in the call's metadata so that the
    reference interpreter can still execute the exact original semantics;
    the performance model uses the routine name and FLOP count instead.
    """
    return LibraryCall(
        routine=match.routine,
        outputs=(match.output,),
        inputs=match.inputs,
        flop_expr=blas_flop_expr(nest, match),
        metadata={
            "roles": list(match.roles),
            "original": node_to_dict(nest),
        },
    )


class ReplaceWithLibraryCall(Transformation):
    """Replace a top-level nest with a BLAS library call if it matches."""

    name = "blas_idiom"

    def __init__(self, nest_index: int, expected_routine: Optional[str] = None):
        self.nest_index = int(nest_index)
        self.expected_routine = expected_routine

    def params(self) -> Dict[str, Any]:
        return {"nest_index": self.nest_index,
                "expected_routine": self.expected_routine}

    def apply(self, program: Program) -> bool:
        nest = get_nest(program, self.nest_index)
        match = match_blas3(nest)
        if match is None:
            raise TransformationError(
                f"nest {self.nest_index} of {program.name!r} does not match a "
                f"BLAS-3 idiom")
        if self.expected_routine and match.routine != self.expected_routine:
            raise TransformationError(
                f"nest {self.nest_index} matched {match.routine!r}, expected "
                f"{self.expected_routine!r}")
        program.body[self.nest_index] = build_library_call(nest, match)
        return True


def detect_blas3_nests(program: Program) -> List[Tuple[int, BlasMatch]]:
    """All top-level nests of the program that match a BLAS-3 idiom."""
    matches: List[Tuple[int, BlasMatch]] = []
    for index, node in enumerate(program.body):
        if isinstance(node, Loop):
            match = match_blas3(node)
            if match is not None:
                matches.append((index, match))
    return matches
