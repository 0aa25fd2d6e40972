"""Scalar expansion.

Large applications such as CLOUDSC compute many intermediate scalars inside
their innermost loops (Figure 10a): each iteration writes a scalar and uses
it a few instructions later.  Those scalars serialize the loop body — no
fission (and no parallelization) is possible while every statement shares
them.  Scalar expansion promotes such per-iteration temporaries to transient
arrays indexed by the loop iterator, after which maximal loop fission can
split the body into individual computations (Figure 10b stores them in the
local arrays ``ZQP_0``/``ZCOND_0``).

A scalar is expanded over a loop only when it is *private* to an iteration:

* every access to the scalar in the whole program is inside that loop,
* within the loop body (in program order) the first access is a write, and
* the scalar is transient (not part of the program's observable state).

These conditions make the transformation trivially semantics-preserving.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Sequence, Set, Tuple

from ..ir.arrays import Array
from ..analysis.affine import nest_statements
from ..ir.nodes import (Computation, LibraryCall, Loop, Node, Program,
                        loop_sites)
from ..ir.symbols import Expr, Read, rebuild, sym


def _accesses(nodes: Sequence[Node], names: Set[str]
              ) -> List[Tuple[str, bool, Tuple[Expr, ...]]]:
    """Every access to the named containers under ``nodes``, in program
    order (:func:`~repro.analysis.affine.nest_statements`), as ``(name,
    is_write, indices)``: a statement's reads, then its write; a library
    call's inputs, then its outputs, with no indices."""
    out: List[Tuple[str, bool, Tuple[Expr, ...]]] = []
    for node in nodes:
        for statement, _enclosing in nest_statements(node):
            if isinstance(statement, LibraryCall):
                out += [(name, False, ()) for name in statement.inputs
                        if name in names]
                out += [(name, True, ()) for name in statement.outputs
                        if name in names]
            else:
                out += [(read.array, False, read.indices)
                        for read in statement.reads() if read.array in names]
                if statement.target.array in names:
                    out.append((statement.target.array, True,
                                statement.target.indices))
    return out


def _retarget(node: Node, name: str, new: Read) -> None:
    """Point every statement access to ``name`` in a subtree at ``new``, in
    place."""

    def rewrite(expr: Expr) -> Expr:
        if isinstance(expr, Read) and expr.array == name:
            return new
        return rebuild(expr, [rewrite(child) for child in expr.children()])

    for comp in node.iter_computations():
        comp.value = rewrite(comp.value)
        if comp.target.array == name:
            comp.target = new


def contract_arrays(program: Program) -> int:
    """Array contraction: the inverse of scalar expansion.

    After producer/consumer fusion, many expanded temporaries are written and
    read within a single loop iteration again; demoting them back to scalars
    removes their memory traffic (Figure 10b keeps only the temporaries that
    actually cross loop boundaries as local arrays).  Returns the number of
    arrays contracted.

    A transient rank-1 array qualifies when all of its accesses, library-call
    operands included, are inside a single loop, every subscript is exactly
    that loop's iterator, and the first access per iteration is a write.
    """
    contracted = 0
    candidates = [name for name, arr in program.arrays.items()
                  if arr.transient and arr.rank == 1]
    for name in candidates:
        # The one loop whose own statements touch the array.
        direct_parents = [
            loop for loop in program.iter_loops()
            if _accesses([child for child in loop.body
                          if isinstance(child, Computation)], {name})]
        if len(direct_parents) != 1:
            continue
        loop = direct_parents[0]
        local = _accesses(loop.body, {name})
        subscript = (sym(loop.iterator),)
        if (not local[0][1]
                or any(indices != subscript for _, _, indices in local)
                or len(_accesses(program.body, {name})) != len(local)):
            continue
        dtype = program.arrays.pop(name).dtype
        program.arrays[name] = Array(name=name, shape=(), dtype=dtype,
                                     transient=True)
        _retarget(loop, name, Read(name, ()))
        contracted += 1
    return contracted


def expand_scalars(program: Program) -> List[Tuple[str, str]]:
    """Apply scalar expansion to every eligible (scalar, loop) pair, in
    place; returns the expanded ``(scalar, loop iterator)`` pairs."""
    expanded: List[Tuple[str, str]] = []

    transient_scalars = {name for name, arr in program.arrays.items()
                         if arr.transient and arr.is_scalar}
    if not transient_scalars:
        return expanded

    # A scalar is private to a loop when the loop holds all of its accesses.
    global_counts = Counter(name for name, _, _ in
                            _accesses(program.body, transient_scalars))
    iterators = {loop.iterator for loop in program.iter_loops()}

    def eligible_in_loop(loop: Loop, scalar: str) -> bool:
        # The expansion array's extent is the loop's upper bound, which must
        # therefore not depend on other loop iterators.
        if loop.end.free_symbols() & iterators:
            return False
        accesses = _accesses([loop], {scalar})
        # First access in program order must be a write.
        return (bool(accesses) and len(accesses) == global_counts[scalar]
                and accesses[0][1])

    # Post-order, so that scalars are expanded over the innermost loop that
    # fully contains their uses.
    handled: Set[str] = set()
    for _owner, body, index in loop_sites(program.body):
        loop = body[index]
        for scalar in sorted(transient_scalars - handled):
            if not eligible_in_loop(loop, scalar):
                continue
            new_name = f"{scalar}__x{loop.iterator}"
            suffix = 0
            while new_name in program.arrays:
                suffix += 1
                new_name = f"{scalar}__x{loop.iterator}{suffix}"
            program.add_array(Array(name=new_name, shape=(loop.end,),
                                    dtype=program.arrays[scalar].dtype,
                                    transient=True))
            _retarget(loop, scalar, Read(new_name, (sym(loop.iterator),)))
            handled.add(scalar)
            expanded.append((scalar, loop.iterator))
    return expanded
