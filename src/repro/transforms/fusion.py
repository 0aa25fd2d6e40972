"""Loop-nest fusion.

Producer-consumer fusion of adjacent loop nests with matching iteration
domains is the optimization recipe discovered for the CLOUDSC erosion kernel
(Section 5.1, Figure 10b): after maximal fission, producer/consumer nests
whose flowing containers no other nest touches are re-fused so that
intermediate values stay in short-lived local storage.  The ``dace``
baseline fuses by a stricter, one-to-one rule over the same scan.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, List, Optional

from ..analysis.dataflow import adjacent_flows
from ..analysis.dependence import dependences_between
from ..ir.nodes import Loop, Node, Program, rename_iterators
from .base import Transformation, TransformationError, get_nest


def _matching_band_depth(first: Loop, second: Loop) -> int:
    """Number of leading band levels with identical bounds and steps."""
    band_a = first.perfectly_nested_band()
    band_b = second.perfectly_nested_band()
    depth = 0
    for loop_a, loop_b in zip(band_a, band_b):
        if (loop_a.start == loop_b.start and loop_a.end == loop_b.end
                and loop_a.step == loop_b.step):
            depth += 1
        else:
            break
    return depth


def can_fuse(first: Loop, second: Loop, depth: Optional[int] = None) -> bool:
    """Check whether fusing the two nests over their matching band is legal.

    Fusion is accepted when every dependence between the two bodies over the
    fused iterators is loop-independent (same-iteration), which is exactly
    the one-to-one producer/consumer condition used in the case study.
    """
    match = _matching_band_depth(first, second)
    if depth is not None:
        match = min(match, depth)
    if match == 0:
        return False

    band_a = first.perfectly_nested_band()[:match]
    band_b = second.perfectly_nested_band()[:match]
    mapping = {b.iterator: a.iterator for a, b in zip(band_a, band_b)}
    renamed_second = second.copy()
    rename_iterators(renamed_second, mapping)

    fused_iterators = [loop.iterator for loop in band_a]
    inner_a = first.perfectly_nested_band()[match - 1].body
    inner_b = renamed_second.perfectly_nested_band()[match - 1].body

    for node_a in inner_a:
        for node_b in inner_b:
            for dep in dependences_between(node_a, node_b, fused_iterators):
                if not dep.loop_independent:
                    return False
            for dep in dependences_between(node_b, node_a, fused_iterators):
                if not dep.loop_independent:
                    return False
    return True


def fuse_nests(first: Loop, second: Loop, depth: Optional[int] = None) -> Loop:
    """Fuse two nests over their matching band; caller checks legality."""
    match = _matching_band_depth(first, second)
    if depth is not None:
        match = min(match, depth)
    if match == 0:
        raise TransformationError("loop nests have no matching band to fuse over")

    band_a = first.perfectly_nested_band()[:match]
    band_b = second.perfectly_nested_band()[:match]
    mapping = {b.iterator: a.iterator for a, b in zip(band_a, band_b)}
    renamed_second = second.copy()
    rename_iterators(renamed_second, mapping)

    fused = first.copy()
    fused_inner = fused.perfectly_nested_band()[match - 1]
    second_inner = renamed_second.perfectly_nested_band()[match - 1]
    fused_inner.body = list(fused_inner.body) + list(second_inner.body)
    return fused


class Fuse(Transformation):
    """Fuse two top-level loop nests over their matching outer band."""

    name = "fuse"

    def __init__(self, first_index: int, second_index: int,
                 depth: Optional[int] = None):
        self.first_index = int(first_index)
        self.second_index = int(second_index)
        self.depth = depth

    def params(self) -> Dict[str, Any]:
        return {"first_index": self.first_index, "second_index": self.second_index,
                "depth": self.depth}

    def apply(self, program: Program) -> bool:
        if self.first_index == self.second_index:
            raise TransformationError("cannot fuse a nest with itself")
        first = get_nest(program, self.first_index)
        second = get_nest(program, self.second_index)
        if not can_fuse(first, second, self.depth):
            raise TransformationError(
                f"nests {self.first_index} and {self.second_index} of "
                f"{program.name!r} cannot be fused legally")
        # Fusion is only valid if no other node between the two nests touches
        # the containers flowing between them; require adjacency for safety.
        lo, hi = sorted((self.first_index, self.second_index))
        between = program.body[lo + 1:hi]
        if between:
            raise TransformationError(
                "fusion requires the two nests to be adjacent in program order")
        fused = fuse_nests(first, second, self.depth)
        program.body[lo:hi + 1] = [fused]
        return True


def _fuse_flows(body: List[Node],
                exclusive: Callable[[int, FrozenSet[int], FrozenSet[int]], bool]
                ) -> int:
    """Fuse adjacent producer/consumer loops of ``body`` in place, first
    legal pair first, until none is left; ``exclusive(producer, writers,
    readers)`` is the rule on who else may touch the flowing containers
    (see :func:`~repro.analysis.dataflow.adjacent_flows`).  Returns the
    number of fusions performed."""
    fused_total = 0
    changed = True
    while changed:
        changed = False
        for producer, writers, readers in adjacent_flows(body):
            first, second = body[producer], body[producer + 1]
            if (isinstance(first, Loop) and isinstance(second, Loop)
                    and exclusive(producer, writers, readers)
                    and can_fuse(first, second)):
                body[producer:producer + 2] = [fuse_nests(first, second)]
                fused_total += 1
                changed = True
                break
    return fused_total


def fuse_chains_in_body(body: List[Node]) -> int:
    """Fuse adjacent producer/consumer loops within a body list, in place —
    the CLOUDSC recipe (Figure 10b), applied at a program's top level and
    inside an outer loop (the CLOUDSC vertical loop).

    Rule: no node *other than the two* reads or writes a container of the
    edge.  This is looser than one-to-one: the consumer may also write a
    flowing container, and the producer may also read one
    (:func:`fuse_producer_consumer_chains` refuses both).  Returns the number
    of fusions performed.
    """
    return _fuse_flows(body, lambda producer, writers, readers:
                       writers | readers <= {producer, producer + 1})


def fuse_adjacent_loops(body: List[Node], depth: Optional[int] = None,
                        min_depth: int = 1) -> int:
    """Greedily fuse adjacent loops of a body whenever fusion is legal.

    Unlike :func:`fuse_chains_in_body` this does not require a
    producer/consumer relation — any pair of *adjacent* loops whose matching
    band carries only loop-independent dependences is fused.  Adjacency plus
    :func:`can_fuse` guarantees legality because the relative order of all
    statements is preserved.

    ``min_depth`` restricts fusion to pairs whose matching band is at least
    that deep; with ``min_depth=2`` only outer loops are re-joined (e.g. the
    CLOUDSC block and vertical loops that maximal fission split), while
    innermost-level fission is preserved.
    """
    fused_total = 0
    index = 0
    while index + 1 < len(body):
        first = body[index]
        second = body[index + 1]
        if (isinstance(first, Loop) and isinstance(second, Loop)
                and _matching_band_depth(first, second) >= min_depth
                and can_fuse(first, second, depth)):
            body[index:index + 2] = [fuse_nests(first, second, depth)]
            fused_total += 1
            continue
        index += 1
    return fused_total


def fuse_producer_consumer_chains(program: Program) -> int:
    """Greedily fuse adjacent one-to-one producer/consumer nests at the
    program's top level, in place — the ``dace`` baseline's map fusion.

    Rule: the producer is the *only* writer and the consumer the *only*
    reader of every container of the edge (stricter than
    :func:`fuse_chains_in_body`).  Returns the number of fusions performed.
    """
    return _fuse_flows(program.body, lambda _producer, writers, readers:
                       not (writers or readers))
