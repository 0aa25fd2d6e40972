"""Loop-nest fusion.

Producer-consumer fusion of adjacent loop nests with matching iteration
domains is the optimization recipe discovered for the CLOUDSC erosion kernel
(Section 5.1, Figure 10b): after maximal fission, producer/consumer nests
whose flowing containers no other nest touches are re-fused so that
intermediate values stay in short-lived local storage; the ``dace``
baseline fuses by a stricter, one-to-one rule.  :func:`fuse` decides and
builds one fusion, and one greedy driver applies it wherever a rule allows.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..analysis.dataflow import adjacent_flows
from ..analysis.dependence import DependenceTable
from ..ir.nodes import Loop, Node, Program, rename_iterators
from .base import Transformation, TransformationError, get_nest

#: Band levels two loops must share for :func:`fuse_adjacent_loops` to join
#: them: the CLOUDSC block and vertical loops, not the innermost level.
OUTER_LEVELS = 2


def _header(loop: Loop):
    return loop.start, loop.end, loop.step


def fuse(first: Loop, second: Loop) -> Optional[Loop]:
    """``first`` then ``second`` as one nest over their leading band levels
    with equal headers, ``second``'s iterators renamed to ``first``'s; or
    ``None`` if no level matches, a loop below ``second``'s matched band
    declares a fused iterator (the rename would capture it), or a fused
    level carries a dependence between the bodies.  Changes neither."""
    band_a, band_b = first.perfectly_nested_band(), second.perfectly_nested_band()
    mapping: Dict[str, str] = {}
    for loop_a, loop_b in zip(band_a, band_b):
        if _header(loop_a) != _header(loop_b):
            break
        mapping[loop_b.iterator] = loop_a.iterator
    depth = len(mapping)
    if not depth:
        return None
    inner_a, inner_b = band_a[depth - 1].body, band_b[depth - 1].body
    if any(loop.iterator in mapping.values()
           for node in inner_b for loop in node.iter_loops()):
        return None
    renamed = band_b[depth - 1].copy()
    rename_iterators(renamed, mapping)
    if DependenceTable().carried_either_way(
            inner_a, renamed.body, [loop.iterator for loop in band_a[:depth]]):
        return None
    fused = first.copy()
    fused.perfectly_nested_band()[depth - 1].body.extend(renamed.body)
    return fused


class Fuse(Transformation):
    """Fuse a top-level loop nest with the next one over their matching band."""

    name = "fuse"

    def __init__(self, first_index: int, second_index: int):
        self.first_index = int(first_index)
        self.second_index = int(second_index)

    def params(self) -> Dict[str, Any]:
        return {"first_index": self.first_index, "second_index": self.second_index}

    def apply(self, program: Program) -> bool:
        # Fusing backwards or across other nodes would reorder statements.
        if self.second_index != self.first_index + 1:
            raise TransformationError(
                f"fusion joins a nest with the next one in program order, "
                f"not nest {self.first_index} with nest {self.second_index}")
        fused = fuse(get_nest(program, self.first_index),
                     get_nest(program, self.second_index))
        if fused is None:
            raise TransformationError(
                f"nests {self.first_index} and {self.second_index} of "
                f"{program.name!r} cannot be fused legally")
        program.body[self.first_index:self.second_index + 1] = [fused]
        return True


def _fuse_greedily(body: List[Node],
                   rule: Callable[[List[Node]], Callable[[int], bool]]) -> int:
    """Fuse loops ``body[i]``, ``body[i + 1]`` in place, in program order,
    wherever ``rule(body)(i)`` allows and :func:`fuse` accepts; after a
    fusion, re-ask the rule and retry the pair ending at the fused loop."""
    fusions = index = 0
    allowed = rule(body)
    while index + 1 < len(body):
        first, second = body[index], body[index + 1]
        fused = (fuse(first, second) if isinstance(first, Loop)
                 and isinstance(second, Loop) and allowed(index) else None)
        if fused is None:
            index += 1
            continue
        body[index:index + 2] = [fused]
        fusions += 1
        allowed = rule(body)
        index = max(index - 1, 0)
    return fusions


def _others(body: List[Node]) -> Dict[int, frozenset]:
    # Per flow edge ``producer -> producer + 1``, who else touches its containers.
    return {producer: writers | readers for producer, writers, readers in adjacent_flows(body)}


def _chain_rule(body: List[Node]) -> Callable[[int], bool]:
    others = _others(body)
    return lambda i: i in others and others[i] <= {i, i + 1}


def _one_to_one_rule(body: List[Node]) -> Callable[[int], bool]:
    others = _others(body)
    return lambda i: i in others and not others[i]


def _outer_levels_match(body: List[Node]) -> Callable[[int], bool]:
    def allowed(i: int) -> bool:
        first, second = (tuple(map(_header, node.perfectly_nested_band()[:OUTER_LEVELS]))
                         for node in body[i:i + 2])
        return len(first) == OUTER_LEVELS and first == second
    return allowed


def fuse_chains_in_body(body: List[Node]) -> int:
    """Fuse adjacent producer/consumer loops of a body in place — the CLOUDSC
    recipe (Figure 10b), at a program's top level and inside an outer loop.
    Rule: no node *other than the two* touches a container of the edge; the
    consumer may also write one and the producer read one
    (:func:`fuse_producer_consumer_chains` refuses both).  Returns the
    number of fusions."""
    return _fuse_greedily(body, _chain_rule)


def fuse_adjacent_loops(body: List[Node]) -> int:
    """Fuse adjacent loops of a body in place whose bands match at least
    :data:`OUTER_LEVELS` levels, producer/consumer or not: the CLOUDSC block
    and vertical loops that maximal fission split are re-joined, its
    innermost-level splits kept.  Returns the number of fusions."""
    return _fuse_greedily(body, _outer_levels_match)


def fuse_producer_consumer_chains(program: Program) -> int:
    """Fuse adjacent one-to-one producer/consumer nests at a program's top
    level in place — the ``dace`` baseline's map fusion.  Rule: the producer
    is the *only* writer and the consumer the *only* reader of every
    container of the edge.  Returns the number of fusions."""
    return _fuse_greedily(program.body, _one_to_one_rule)
