"""Transformations: the steps of an optimization recipe.

The daisy auto-scheduler (Section 4) stores *optimization recipes* — sequences
of loop transformations such as interchange, tiling, parallelization and
vectorization — in a database and applies them to normalized loop nests
through :func:`repro.transforms.recipe.apply_recipe`.  Each transformation
is:

* addressable (it names the top-level nest it applies to),
* checkable (it can refuse to apply when illegal, via
  :class:`TransformationError`),
* serializable (recipes are persisted alongside embeddings), and
* honest about change (``apply`` returns whether it rewrote the program).
"""

from __future__ import annotations

from typing import Any, Dict, Type

from ..analysis.band import BandView
from ..ir.nodes import Loop, Program


class TransformationError(Exception):
    """Raised when a transformation cannot be applied legally."""


class Transformation:
    """Base class for all transformations — a serializable, registered
    recipe step.

    Subclasses implement :meth:`apply`, which mutates the given program in
    place (programs are cheap to copy; callers that need the original copy it
    first), and :meth:`params`, which returns the JSON-serializable parameter
    dictionary used for persistence.  ``apply(program)`` returns whether it
    rewrote the program (an illegal transformation raises instead).
    """

    #: Registry of transformation names to classes, for deserialization.
    registry: Dict[str, Type["Transformation"]] = {}

    #: Short name used in serialized recipes; set by subclasses.
    name: str = "transformation"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "name" not in cls.__dict__:
            return  # an abstract family (no serialized name of its own)
        if cls.name in Transformation.registry:
            raise ValueError(f"duplicate transformation name {cls.name!r}")
        Transformation.registry[cls.name] = cls

    def apply(self, program: Program) -> bool:
        raise NotImplementedError

    def params(self) -> Dict[str, Any]:
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "params": self.params()}

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "Transformation":
        name = data["name"]
        if name not in Transformation.registry:
            raise ValueError(f"unknown transformation {name!r}")
        return Transformation.registry[name](**data.get("params", {}))

    def __repr__(self) -> str:
        args = ", ".join(f"{key}={value!r}" for key, value in self.params().items())
        return f"{type(self).__name__}({args})"


class BandSchedule(Transformation):
    """A transformation that reorders, splits or annotates the loops of one
    top-level nest and leaves its statements alone.

    Its legality check and its effect are one method, :meth:`schedule`, on a
    :class:`~repro.analysis.band.BandView` of the nest.  :meth:`apply` is
    that method between viewing the nest and materialising the view; a
    search calls it on views alone and builds nothing.
    """

    nest_index: int

    def schedule(self, view: BandView) -> None:
        """Check legality against ``view`` and edit it, or raise
        :class:`TransformationError`."""
        raise NotImplementedError

    def within_band(self, view: BandView) -> bool:
        """Whether :meth:`schedule` edits frames of ``view`` only, and no
        loop of the subtree below its band."""
        return True

    def view(self, program: Program) -> BandView:
        """A view of the nest this transformation addresses."""
        return BandView(get_nest(program, self.nest_index), program)

    def apply(self, program: Program) -> bool:
        return self.apply_on(program, self.view(program))

    def apply_on(self, program: Program, view: BandView) -> bool:
        """:meth:`apply` through ``view``, a view of the addressed nest of
        ``program``: schedule it and build what it describes."""
        self.schedule(view)
        return build_view(program, self.nest_index, view)


def get_nest(program: Program, nest_index: int) -> Loop:
    """Fetch the top-level loop nest at ``nest_index`` or raise."""
    if nest_index < 0 or nest_index >= len(program.body):
        raise TransformationError(
            f"nest index {nest_index} out of range for program {program.name!r} "
            f"with {len(program.body)} top-level nodes")
    node = program.body[nest_index]
    if not isinstance(node, Loop):
        raise TransformationError(
            f"top-level node {nest_index} of {program.name!r} is not a loop")
    return node


def set_nest(program: Program, nest_index: int, nest: Loop) -> None:
    """Replace the top-level nest at ``nest_index``."""
    program.body[nest_index] = nest


def build_view(program: Program, nest_index: int, view: BandView) -> bool:
    """Put the nest ``view`` describes at ``nest_index`` (the nest it was
    made of stays when no frame changed); returns whether the nest changed,
    in a frame or below the band."""
    changed = view.changed()
    if changed:
        set_nest(program, nest_index, view.materialise())
    return changed or view.edited_below
