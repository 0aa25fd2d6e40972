"""Loop interchange."""

from __future__ import annotations

from typing import Any, Dict, Sequence

from ..analysis.band import BandView
from .base import BandSchedule, TransformationError


class Interchange(BandSchedule):
    """Reorder the perfectly nested band of one top-level loop nest."""

    name = "interchange"

    def __init__(self, nest_index: int, order: Sequence[str]):
        self.nest_index = int(nest_index)
        self.order = list(order)

    def params(self) -> Dict[str, Any]:
        return {"nest_index": self.nest_index, "order": list(self.order)}

    def schedule(self, view: BandView) -> None:
        current = view.order()
        if self.order == current:
            return
        if sorted(current) != sorted(self.order):
            raise TransformationError(
                f"interchange order {self.order} does not match band {current}")
        if not view.order_is_legal(self.order):
            raise TransformationError(
                f"interchange to {self.order} violates dependences in nest "
                f"{self.nest_index} of {view.program.name!r}")
        view.reorder(self.order)
