"""Loop tiling (blocking)."""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..analysis.dependence import band_order_is_legal, nest_direction_vectors
from ..ir.nodes import Loop, Program
from ..ir.symbols import Const, Min, Sym
from ..passes.base import PassContext
from .base import (Transformation, TransformationError, get_nest, set_nest,
                   shared_analysis)


def tile_band(nest: Loop, tile_sizes: Mapping[str, int]) -> Loop:
    """Tile the perfectly nested band of ``nest``.

    Every iterator appearing in ``tile_sizes`` is strip-mined into a tile
    loop (iterating over tile origins with the tile size as step) and a point
    loop (iterating within the tile, bounded by ``min(origin + size, end)``).
    All tile loops are placed outside all point loops, preserving the
    relative order within each group — the standard rectangular tiling.
    """
    band = nest.perfectly_nested_band()
    iterators = [loop.iterator for loop in band]
    unknown = set(tile_sizes) - set(iterators)
    if unknown:
        raise TransformationError(f"cannot tile unknown iterators {sorted(unknown)}")

    inner_body = band[-1].body

    tile_loops: List[Loop] = []
    point_loops: List[Loop] = []
    for loop in band:
        size = tile_sizes.get(loop.iterator)
        if size is None or size <= 1:
            point_loops.append(Loop(loop.iterator, loop.start, loop.end, loop.step,
                                    body=[], parallel=loop.parallel,
                                    vectorized=loop.vectorized, unroll=loop.unroll))
            continue
        tile_iterator = f"{loop.iterator}_t"
        tile_loops.append(Loop(tile_iterator, loop.start, loop.end, Const(size),
                               body=[], parallel=loop.parallel,
                               tile_of=loop.iterator))
        point_loops.append(Loop(loop.iterator, Sym(tile_iterator),
                                Min.make([Sym(tile_iterator) + size, loop.end]),
                                loop.step, body=[], vectorized=loop.vectorized,
                                unroll=loop.unroll, tile_of=loop.iterator))

    ordered = tile_loops + point_loops
    for outer, inner in zip(ordered, ordered[1:]):
        outer.body = [inner]
    ordered[-1].body = inner_body
    return ordered[0]


class Tile(Transformation):
    """Tile selected loops of a top-level nest with rectangular tiles."""

    name = "tile"

    def __init__(self, nest_index: int, tile_sizes: Mapping[str, int]):
        self.nest_index = int(nest_index)
        self.tile_sizes = {str(k): int(v) for k, v in dict(tile_sizes).items()}

    def params(self) -> Dict[str, Any]:
        return {"nest_index": self.nest_index, "tile_sizes": dict(self.tile_sizes)}

    def apply(self, program: Program,
              context: Optional[PassContext] = None) -> None:
        if not self.tile_sizes:
            return
        nest = get_nest(program, self.nest_index)
        band = nest.perfectly_nested_band()
        iterators = [loop.iterator for loop in band]
        unknown = set(self.tile_sizes) - set(iterators)
        if unknown:
            raise TransformationError(
                f"cannot tile unknown iterators {sorted(unknown)} in nest "
                f"{self.nest_index} of {program.name!r}")
        tiled = [it for it in iterators if self.tile_sizes.get(it, 0) > 1]
        if not tiled:
            return
        # Rectangular tiling is strip-mining plus interchange; it is legal when
        # the tiled loops form a fully permutable band.  We approximate full
        # permutability by requiring that both the original and the reversed
        # relative order of the tiled loops (moved outermost) are legal.
        others = [it for it in iterators if it not in tiled]
        vectors = nest_direction_vectors(nest, shared_analysis(context))
        for candidate in (tiled + others, list(reversed(tiled)) + others):
            if not band_order_is_legal(band, vectors, candidate):
                raise TransformationError(
                    f"tiling {self.tile_sizes} is not legal for nest "
                    f"{self.nest_index} of {program.name!r}")
        set_nest(program, self.nest_index, tile_band(nest, self.tile_sizes))
