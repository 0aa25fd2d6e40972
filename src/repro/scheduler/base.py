"""Common scheduler interface.

A scheduler consumes a program (plus concrete parameter bindings used for
cost estimation) and produces a *scheduled* program: a copy with loop
transformations applied and schedule annotations set.  The experiments then
estimate runtimes of scheduled programs with the performance model, exactly
as the paper measures the code generated by each auto-scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..analysis.band import BandView
from ..ir.nodes import Loop, Program
from ..passes.analysis import AnalysisManager
from ..perf.machine import DEFAULT_MACHINE, MachineModel
from ..perf.model import CostModel, IncrementalEstimate
from ..transforms.base import BandSchedule, TransformationError
from ..transforms.recipe import Recipe, apply_recipe


@dataclass
class NestScheduleInfo:
    """Per-nest outcome of a scheduling run."""

    nest_index: int
    status: str  # "optimized", "unsupported", "unchanged", "failed"
    recipe: Optional[Recipe] = None
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "nest_index": self.nest_index,
            "status": self.status,
            "recipe": self.recipe.to_dict() if self.recipe else None,
            "detail": self.detail,
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "NestScheduleInfo":
        return NestScheduleInfo(
            nest_index=data["nest_index"],
            status=data["status"],
            recipe=Recipe.from_dict(data["recipe"]) if data.get("recipe") else None,
            detail=data.get("detail", ""),
        )


@dataclass
class ScheduleResult:
    """Outcome of scheduling one program."""

    scheduler: str
    program: Program
    nests: List[NestScheduleInfo] = field(default_factory=list)
    #: True when the scheduler could not handle the program at all (the "X"
    #: entries of Figure 6).
    unsupported: bool = False
    notes: str = ""

    def recipes(self) -> List[Recipe]:
        return [info.recipe for info in self.nests if info.recipe is not None]

    def copy(self) -> "ScheduleResult":
        """A result whose program the receiver may freely mutate (the cache
        and the serving layer hand these out)."""
        return ScheduleResult(scheduler=self.scheduler,
                              program=self.program.copy(),
                              nests=list(self.nests),
                              unsupported=self.unsupported,
                              notes=self.notes)

    def share(self) -> "ScheduleResult":
        """A result sharing this result's loop tree structurally.

        The program is a :meth:`~repro.ir.nodes.Program.snapshot` — its
        nodes are frozen and shared with the receiver, so handing out a
        cached result costs O(1) instead of a deep copy.  Receivers that
        need to rewrite the tree take :meth:`copy` (or
        ``result.program.copy()``) first; the name and the array/parameter
        containers of the view are private and may be changed freely.
        """
        return ScheduleResult(scheduler=self.scheduler,
                              program=self.program.snapshot(),
                              nests=list(self.nests),
                              unsupported=self.unsupported,
                              notes=self.notes)

    def summary(self) -> str:
        optimized = sum(1 for info in self.nests if info.status == "optimized")
        return (f"{self.scheduler}: {optimized}/{len(self.nests)} nests optimized"
                + (" (unsupported)" if self.unsupported else ""))

    def to_dict(self) -> Dict[str, object]:
        from ..ir.serialization import program_to_dict

        return {
            "scheduler": self.scheduler,
            "program": program_to_dict(self.program),
            "nests": [info.to_dict() for info in self.nests],
            "unsupported": self.unsupported,
            "notes": self.notes,
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "ScheduleResult":
        from ..ir.serialization import program_from_dict

        return ScheduleResult(
            scheduler=data["scheduler"],
            program=program_from_dict(dict(data["program"])),
            nests=[NestScheduleInfo.from_dict(entry)
                   for entry in data.get("nests", [])],
            unsupported=bool(data.get("unsupported", False)),
            notes=data.get("notes", ""),
        )


class Scheduler:
    """Base class of all auto-schedulers and compiler baselines.

    :meth:`schedule` is the one walk over a program's top-level nests; a
    scheduler customizes it through four hooks: :meth:`prepare` (the copy the
    walk rewrites), :meth:`schedule_nest` (what happens to one nest),
    :meth:`recipe_for` (the recipe the default ``schedule_nest`` applies) and
    :meth:`price` (modeled seconds of the outcome).
    """

    name = "scheduler"
    #: Detail recorded for nests scheduled through :meth:`recipe_for`; when
    #: empty, the reasons transformations refused to apply are recorded.
    detail = ""

    def __init__(self, machine: MachineModel = DEFAULT_MACHINE, threads: int = 1):
        self.machine = machine
        self.threads = threads
        self.cost_model = CostModel(machine, threads)

    def prepare(self, program: Program) -> ScheduleResult:
        """The result whose program the nest walk rewrites in place."""
        return ScheduleResult(scheduler=self.name, program=program.copy())

    def recipe_for(self, nest: Loop, index: int) -> Recipe:
        """The recipe for the top-level nest at ``index``."""
        raise NotImplementedError

    def schedule_nest(self, program: Program, index: int,
                      parameters: Mapping[str, int]) -> NestScheduleInfo:
        """Schedule the top-level nest at ``index`` of ``program`` in place."""
        recipe = self.recipe_for(program.body[index], index)
        application = apply_recipe(program, recipe, strict=False)
        status = "optimized" if application.applied else "unchanged"
        detail = self.detail or "; ".join(msg for _, msg in application.failed)
        return NestScheduleInfo(index, status, recipe, detail)

    def schedule(self, program: Program, parameters: Mapping[str, int],
                 **nest_options) -> ScheduleResult:
        """Produce a scheduled copy of ``program``.

        ``nest_options`` are forwarded to every :meth:`schedule_nest` call
        (daisy's ``tune`` passes the label it seeds the database under).
        """
        result = self.prepare(program)
        scheduled = result.program
        for index in range(len(scheduled.body)):
            if isinstance(scheduled.body[index], Loop):
                result.nests.append(self.schedule_nest(
                    scheduled, index, parameters, **nest_options))
        return result

    def price(self, program: Program, parameters: Mapping[str, int]) -> float:
        """Modeled seconds of a program this scheduler produced."""
        return self.cost_model.estimate_seconds(program, parameters)

    def estimate(self, program: Program, parameters: Mapping[str, int]) -> float:
        """Schedule the program and estimate its runtime in seconds."""
        return self.price(self.schedule(program, parameters).program, parameters)


class NestPricer:
    """Modeled seconds of one program under candidate recipes for one of its
    top-level nests — how every search prices a candidate.

    Built once per search around one :class:`~repro.analysis.band.BandView`
    of the searched nest, over a frozen private copy of it (``program`` is
    never mutated or frozen).  A recipe of band schedules for that nest is
    interpreted on a fork of the view — its transformations run the very
    ``schedule`` that ``apply_recipe`` runs between viewing and building —
    and the outcome is priced as frames: no loop is built, only the changed
    nest is re-priced (:class:`~repro.perf.model.IncrementalEstimate`), and
    recipes that end in the same schedule share one price.  Anything else
    (``Fuse``, an idiom replacement, an annotation below the band) is
    applied to a full copy and priced whole.  Either way the price equals
    ``CostModel.estimate_seconds`` of a copy of the program with the recipe
    applied, bit for bit.  Legality questions go through ``analysis`` (the
    caller's manager, or one private to this pricer).
    """

    def __init__(self, cost_model: CostModel, program: Program, nest_index: int,
                 parameters: Mapping[str, int],
                 analysis: Optional[AnalysisManager] = None):
        self.cost_model = cost_model
        self.program = program
        self.nest_index = nest_index
        self.parameters = parameters
        # ``is not None``: an empty manager is falsy through ``__len__``.
        self.analysis = analysis if analysis is not None else AnalysisManager()
        self._estimate = IncrementalEstimate(cost_model, program, parameters,
                                             nest_index, self.analysis)
        #: Schedule of the nest (the view's frames) -> modeled seconds.
        self._prices: Dict[Tuple, float] = {}
        self.view = BandView(program.body[nest_index].copy().freeze(),
                             program.arrays, parameters, self.analysis,
                             program.name)

    def price(self, recipe: Recipe) -> float:
        if not all(isinstance(transformation, BandSchedule)
                   and transformation.nest_index == self.nest_index
                   and transformation.within_band(self.view)
                   for transformation in recipe):
            trial = self.program.copy()
            apply_recipe(trial, recipe, strict=False, analysis=self.analysis)
            return self.cost_model.estimate_seconds(trial, self.parameters)
        view = self.view.fork()
        for transformation in recipe:
            try:
                transformation.schedule(view)
            except TransformationError:
                pass  # skipped, as ``apply_recipe(strict=False)`` skips it
        state = view.state()
        seconds = self._prices.get(state)
        if seconds is None:
            seconds = self._prices[state] = self._price(view)
        return seconds

    def _price(self, view: BandView) -> float:
        return self._estimate.seconds(view)


def retarget_recipe(recipe: Recipe, nest_index: int, name: str = "") -> Recipe:
    """Return a copy of ``recipe`` with every transformation re-pointed at
    ``nest_index``.

    Recipes in the tuning database were recorded against a nest of the
    program they were tuned on; transfer tuning applies them to the
    structurally equivalent nest of another (normalized) program.
    """
    from ..transforms.base import Transformation

    retargeted = Recipe(name or f"{recipe.name}@{nest_index}", notes=recipe.notes)
    for transformation in recipe.transformations:
        params = dict(transformation.params())
        if "nest_index" in params:
            params["nest_index"] = nest_index
        retargeted.add(Transformation.from_dict(
            {"name": transformation.name, "params": params}))
    return retargeted
