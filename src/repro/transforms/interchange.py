"""Loop interchange."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..analysis.dependence import permutation_is_legal
from ..ir.nodes import Program
from ..normalization.stride_minimization import apply_permutation
from ..passes.base import PassContext
from .base import (Transformation, TransformationError, get_nest, set_nest,
                   shared_analysis)


class Interchange(Transformation):
    """Reorder the perfectly nested band of one top-level loop nest."""

    name = "interchange"

    def __init__(self, nest_index: int, order: Sequence[str]):
        self.nest_index = int(nest_index)
        self.order = list(order)

    def params(self) -> Dict[str, Any]:
        return {"nest_index": self.nest_index, "order": list(self.order)}

    def apply(self, program: Program,
              context: Optional[PassContext] = None) -> None:
        nest = get_nest(program, self.nest_index)
        band = nest.perfectly_nested_band()
        current = [loop.iterator for loop in band]
        if sorted(current) != sorted(self.order):
            raise TransformationError(
                f"interchange order {self.order} does not match band {current}")
        if self.order == current:
            return
        if not permutation_is_legal(nest, self.order, shared_analysis(context)):
            raise TransformationError(
                f"interchange to {self.order} violates dependences in nest "
                f"{self.nest_index} of {program.name!r}")
        set_nest(program, self.nest_index, apply_permutation(nest, self.order))
