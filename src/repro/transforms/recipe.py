"""Optimization recipes: named, serializable transformation sequences.

A recipe is what the transfer-tuning database stores per loop nest: the
sequence of transformations (interchange, tiling, parallelization,
vectorization, idiom replacement, ...) that turned the normalized nest into
its optimized form.  :func:`apply_recipe` is the one way to apply it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..ir.nodes import Program
from .base import BandSchedule, Transformation, TransformationError


@dataclass
class Recipe:
    """A named sequence of transformations."""

    name: str
    transformations: List[Transformation] = field(default_factory=list)
    notes: str = ""

    def add(self, transformation: Transformation) -> "Recipe":
        self.transformations.append(transformation)
        return self

    def __len__(self) -> int:
        return len(self.transformations)

    def __iter__(self):
        return iter(self.transformations)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "notes": self.notes,
            "transformations": [t.to_dict() for t in self.transformations],
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "Recipe":
        return Recipe(
            name=data["name"],
            notes=data.get("notes", ""),
            transformations=[Transformation.from_dict(entry)
                             for entry in data.get("transformations", [])],
        )


@dataclass
class RecipeApplication:
    """Outcome of applying a recipe to a program."""

    recipe: Recipe
    applied: List[Transformation] = field(default_factory=list)
    failed: List[Tuple[Transformation, str]] = field(default_factory=list)

    @property
    def fully_applied(self) -> bool:
        return not self.failed

    def summary(self) -> str:
        return (f"recipe {self.recipe.name!r}: applied {len(self.applied)}/"
                f"{len(self.recipe)} transformations")

    def attempt(self, run: Callable[[Transformation], Any],
                strict: bool = False) -> None:
        """``run`` each step of the recipe in order, recording it as applied
        — or, when it refuses, skipping it with its reason (raising when
        ``strict``)."""
        for step in self.recipe:
            try:
                run(step)
            except TransformationError as error:
                if strict:
                    raise
                self.failed.append((step, str(error)))
            else:
                self.applied.append(step)


def apply_recipe(program: Program, recipe: Recipe,
                 strict: bool = False) -> RecipeApplication:
    """Apply a recipe to ``program`` in place, one step at a time (a band
    schedule views its nest, schedules the view and builds it).

    The program's container facts are derived at most once per program
    state: the first view that needs them derives them and each later band
    schedule's view is handed them.  A band schedule never changes what the
    program reads; any other step (a library call put in a nest's place
    reads its operands whole) drops them.

    With ``strict=True`` the first illegal transformation raises; otherwise
    illegal transformations are recorded and skipped — mirroring the paper's
    behavior that a transformation sequence "cannot be applied" when a B loop
    nest does not reduce to an A loop nest.
    """
    result = RecipeApplication(recipe=recipe)
    facts: Optional[Mapping[str, int]] = None

    def run(step: Transformation) -> None:
        nonlocal facts
        if not isinstance(step, BandSchedule):
            step.apply(program)
            facts = None
            return
        view = step.view(program)
        view.facts = facts
        try:
            step.apply_on(program, view)
        finally:
            facts = view.facts

    result.attempt(run, strict)
    return result
