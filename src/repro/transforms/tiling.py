"""Loop tiling (blocking)."""

from __future__ import annotations

from typing import Any, Dict, Mapping

from ..analysis.band import BandView
from ..ir.symbols import Const
from .base import BandSchedule, TransformationError


class Tile(BandSchedule):
    """Tile selected loops of a top-level nest with rectangular tiles."""

    name = "tile"

    def __init__(self, nest_index: int, tile_sizes: Mapping[str, int]):
        self.nest_index = int(nest_index)
        self.tile_sizes = {str(k): int(v) for k, v in dict(tile_sizes).items()}

    def params(self) -> Dict[str, Any]:
        return {"nest_index": self.nest_index, "tile_sizes": dict(self.tile_sizes)}

    def schedule(self, view: BandView) -> None:
        iterators = view.order()
        unknown = set(self.tile_sizes) - set(iterators)
        if unknown:
            raise TransformationError(
                f"cannot tile unknown iterators {sorted(unknown)} in nest "
                f"{self.nest_index} of {view.program.name!r}")
        tiled = [it for it in iterators if self.tile_sizes.get(it, 0) > 1]
        if not tiled:
            return
        # A point loop starts at its tile's origin: origins ``start + k *
        # size`` are iterations of the loop only when its step divides the
        # size.
        for frame in view.frames:
            size = self.tile_sizes.get(frame.iterator, 0)
            if size > 1 and not (isinstance(frame.step, Const)
                                 and frame.step.value > 0
                                 and size % frame.step.value == 0):
                raise TransformationError(
                    f"cannot tile {frame.iterator!r} by {size}: its step "
                    f"{frame.step} does not divide the size")
        if not view.tiling_is_legal(tiled):
            raise TransformationError(
                f"tiling {self.tile_sizes} is not legal for nest "
                f"{self.nest_index} of {view.program.name!r}")
        view.tile(self.tile_sizes)
