"""Loop normal form: zero-based, unit-step loops with canonical iterator names.

This is the classical pre-conditioning step applied before the paper's two
normalization criteria: every counted loop is rewritten so that its iterator
runs from 0 with step 1, and iterator names are canonicalized per nest so
that structurally identical nests compare equal.  Both rewrites are exact
(the body is re-indexed through substitution), so semantics are preserved by
construction.
"""

from __future__ import annotations

from ..ir.nodes import (Loop, Program, loop_sites, rename_iterators,
                        substitute_symbols)
from ..ir.symbols import Const, Expr, FloorDiv, const, sym


def _normalize_single_loop(loop: Loop) -> bool:
    """Rewrite one loop to start at 0 with step 1 (in place); returns
    whether it was rewritten.

    For a loop ``for (i = start; i < end; i += step)`` the rewritten loop is
    ``for (i = 0; i < ceil((end - start) / step); i++)`` and every use of
    ``i`` in the body becomes ``start + step * i``.  Loops whose step is not
    a positive constant are left untouched (they cannot be lifted by the
    symbolic representation anyway).
    """
    start, step = loop.start, loop.step
    if (not isinstance(step, Const) or step.value <= 0
            or (start == const(0) and step == const(1))):
        return False

    iterator = loop.iterator
    replacement: Expr = sym(iterator)
    if step.value != 1:
        replacement = replacement * step.value
    replacement = replacement + start
    for child in loop.body:
        substitute_symbols(child, {iterator: replacement})

    span = loop.end - loop.start
    if step.value == 1:
        new_end = span
    else:
        # ceil(span / step) == floor((span + step - 1) / step)
        new_end = FloorDiv.make(span + (step.value - 1), step)
    loop.start = const(0)
    loop.end = new_end
    loop.step = const(1)
    return True


def normalize_program_bounds(program: Program) -> bool:
    """Rewrite every loop to start at 0 with step 1, children before their
    loop (:func:`~repro.ir.nodes.loop_sites`), in place; returns whether any
    loop was rewritten."""
    changed = False
    for _owner, body, index in loop_sites(program.body):
        changed = _normalize_single_loop(body[index]) or changed
    return changed


def canonicalize_iterator_names(program: Program) -> bool:
    """Rename loop iterators to a canonical sequence per top-level nest;
    returns whether any nest was renamed.

    Within each top-level loop nest, iterators are renamed to ``i0, i1, ...``
    in pre-order (however many loops the nest holds).  Renaming is
    capture-free because loop iterators are only visible within their own
    nest.  A nest that already carries its canonical names is not touched.
    """
    changed = False
    for top in program.body:
        if not isinstance(top, Loop):
            continue
        mapping = {loop.iterator: f"i{index}"
                   for index, loop in enumerate(top.iter_loops())}
        if any(old != new for old, new in mapping.items()):
            rename_iterators(top, mapping)
            changed = True
    return changed
