"""Common scheduler interface.

A scheduler consumes a program (plus concrete parameter bindings used for
cost estimation) and produces a *scheduled* program: a copy with loop
transformations applied and schedule annotations set.  The experiments then
estimate runtimes of scheduled programs with the performance model, exactly
as the paper measures the code generated by each auto-scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from ..analysis.band import BandView
from ..analysis.parallelism import container_facts
from ..ir.nodes import Loop, Program
from ..perf.machine import DEFAULT_MACHINE, MachineModel
from ..perf.model import CostModel, NodePrices, Priced
from ..transforms.base import BandSchedule, set_nest
from ..transforms.recipe import Recipe, RecipeApplication, apply_recipe


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
    #: Modeled seconds of ``program`` (:meth:`Scheduler.price`), set by the
    #: walk that built it; copies and decoded results do not carry it.
    runtime_s: Optional[float] = field(default=None, compare=False)

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


class Unsupported(Exception):
    """Raised by :meth:`Scheduler.recipe_for` for a nest the scheduler does
    not handle; the message is the reason."""


class Scheduler:
    """Base class of all auto-schedulers and compiler baselines.

    :meth:`schedule` is the one walk over a program's top-level nests; a
    scheduler customizes it through four hooks: :meth:`prepare` (the copy the
    walk rewrites), :meth:`schedule_nest` (what happens to one nest),
    :meth:`recipe_for` (the recipe the default ``schedule_nest`` builds on
    the nest's one :class:`NestPricer`) and :meth:`price` (modeled seconds
    of the outcome).
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

    def recipe_for(self, pricer: "NestPricer") -> Recipe:
        """The recipe for the nest ``pricer`` prices, chosen on
        ``pricer.view``; raises :class:`Unsupported` to leave it alone."""
        raise NotImplementedError

    def schedule_nest(self, program: Program, index: int,
                      parameters: Mapping[str, int],
                      prices: NodePrices) -> NestScheduleInfo:
        """Schedule the top-level nest at ``index`` of ``program`` in place.
        ``prices`` is the walk's table, for a search to price with."""
        pricer = NestPricer(self.cost_model, program, index, parameters,
                            prices=prices)
        try:
            recipe = self.recipe_for(pricer)
        except Unsupported as reason:
            return NestScheduleInfo(index, "unsupported", None, str(reason))
        application = pricer.build(recipe)
        status = "optimized" if application.applied else "unchanged"
        detail = self.detail or "; ".join(msg for _, msg in application.failed)
        return NestScheduleInfo(index, status, recipe, detail)

    def schedule(self, program: Program, parameters: Mapping[str, int],
                 **nest_options) -> ScheduleResult:
        """Produce a scheduled copy of ``program``, priced.

        ``nest_options`` are forwarded to every :meth:`schedule_nest` call
        (daisy's ``tune`` passes the label it seeds the database under).
        The walk holds one :class:`~repro.perf.model.NodePrices` table for
        the call: every search of it prices a sibling nest once and records
        the nest it builds, and the result's ``runtime_s`` is :meth:`price`
        from that table.  The table also carries the program's container
        facts, derived once per program state: a band schedule never
        changes what the program reads, a library call put in a nest's
        place does.  The table dies with the call.
        """
        prices = NodePrices(self.cost_model, parameters)
        result = self.prepare(program)
        scheduled = result.program
        for index in range(len(scheduled.body)):
            nest = scheduled.body[index]
            if isinstance(nest, Loop):
                result.nests.append(self.schedule_nest(
                    scheduled, index, parameters, prices, **nest_options))
                if any(node is nest for node in scheduled.body):
                    # Still there: a recipe step that annotates a loop below
                    # the band may have edited it in place.
                    prices.forget(nest)
                if not isinstance(scheduled.body[index], Loop):
                    # A library call in the nest's place reads its operands
                    # whole: what the program reads changed.
                    prices.facts = None
        result.runtime_s = self.price(scheduled, parameters, prices)
        return result

    def price(self, program: Program, parameters: Mapping[str, int],
              prices: Optional[NodePrices] = None) -> float:
        """Modeled seconds of a program this scheduler produced (from the
        walk's table ``prices`` when one is given)."""
        if prices is None:
            return self.cost_model.estimate_seconds(program, parameters)
        return prices.seconds(program)

    def estimate(self, program: Program, parameters: Mapping[str, int]) -> float:
        """Schedule the program and estimate its runtime in seconds."""
        return self.schedule(program, parameters).runtime_s


class NestPricer:
    """Modeled seconds of one program under candidate recipes for one of its
    top-level nests — how every search prices a candidate — and the nest
    built by the recipe the scheduler chose (every scheduler builds its
    nests here, see :meth:`Scheduler.schedule_nest`).

    Built once per nest around one :class:`~repro.analysis.band.BandView`
    of the program's own nest (only :meth:`build` mutates the program).  A
    recipe of band schedules for that nest is interpreted on a fork of the
    view, which edits frames of its own and cannot annotate the subtree
    below the band — its transformations run the very ``schedule`` that
    ``BandSchedule.apply`` runs between viewing and building — and the
    outcome is priced as frames: no loop is built, the other top-level
    nodes come from ``prices`` (the walk's
    :class:`~repro.perf.model.NodePrices`, or a table private to this
    pricer), and recipes that end in the same schedule share one price.
    Anything else (``Fuse``, an idiom replacement, an annotation below the
    band) is applied to a full copy and priced whole.  Either way
    the price equals ``CostModel.estimate_seconds`` of a copy of the program
    with the recipe applied, bit for bit.  The view's facts are the nest's
    one memo: a search's legal orders and every candidate read them, and so
    do a scheduler's ``recipe_for`` and daisy's embedding of the nest and
    the recipe it transfers.  The view classifies under the container facts
    ``prices`` carries.
    """

    def __init__(self, cost_model: CostModel, program: Program, nest_index: int,
                 parameters: Mapping[str, int], *,
                 prices: Optional[NodePrices] = None):
        self.cost_model = cost_model
        self.program = program
        self.nest_index = nest_index
        self.parameters = parameters
        self.prices = (prices if prices is not None
                       else NodePrices(cost_model, parameters))
        #: The running total a from-scratch estimate has reached at the
        #: nest, and the names the nodes before it touched.
        self._prefix = 0.0
        self._before: FrozenSet[str] = frozenset()
        for index in range(nest_index):
            cost, self._before = self.prices.cost(program, index, self._before)
            if cost is not None:
                self._prefix += cost.time
        #: Schedule of the nest (the view's frames) -> what pricing the
        #: nest gave.
        self._priced: Dict[Tuple, Priced] = {}
        #: Names touched once the nest ran -> the seconds of each node
        #: after it, in program order.
        self._later: Dict[FrozenSet[str], Tuple[float, ...]] = {}
        self.view = BandView(program.body[nest_index], program, parameters)
        if self.prices.facts is None:
            self.prices.facts = container_facts(program)
        self.view.facts = self.prices.facts

    def _on_view(self, recipe: Recipe) -> bool:
        """Whether ``recipe`` is band schedules of this nest only."""
        return all(isinstance(transformation, BandSchedule)
                   and transformation.nest_index == self.nest_index
                   and transformation.within_band(self.view)
                   for transformation in recipe)

    def _schedule(self, recipe: Recipe) -> Tuple[BandView, RecipeApplication]:
        """A fork of the view with ``recipe`` scheduled on it, and which
        steps applied (a refusal is skipped, as ``apply_recipe`` skips it)."""
        view = self.view.fork()
        application = RecipeApplication(recipe)
        application.attempt(lambda step: step.schedule(view))
        return view, application

    def _priced_state(self, view: BandView) -> Priced:
        state = view.state()
        priced = self._priced.get(state)
        if priced is None:
            priced = self._priced[state] = self._price(view)
        return priced

    def price(self, recipe: Recipe) -> float:
        if not self._on_view(recipe):
            trial = self.program.copy()
            apply_recipe(trial, recipe, strict=False)
            return self.cost_model.estimate_seconds(trial, self.parameters)
        cost, names = self._priced_state(self._schedule(recipe)[0])
        total = self._prefix
        if cost is not None:
            total += cost.time
        for seconds in self._after(names):
            total += seconds
        return total

    def _after(self, names: FrozenSet[str]) -> Tuple[float, ...]:
        """The seconds of each node after the nest that the model prices,
        once the nest touched ``names``: looked up in the table once per
        set of names, added up per candidate in program order as a
        from-scratch estimate adds them."""
        later = self._later.get(names)
        if later is None:
            seconds = []
            touched = names
            for index in range(self.nest_index + 1, len(self.program.body)):
                cost, touched = self.prices.cost(self.program, index, touched)
                if cost is not None:
                    seconds.append(cost.time)
            later = self._later[names] = tuple(seconds)
        return later

    def _price(self, view: BandView) -> Priced:
        """What pricing the nest as ``view`` schedules it gives."""
        touched = set(self._before)
        cost = self.cost_model.estimate_node(
            view, self.program, self.parameters, self.nest_index, touched)
        return cost, frozenset(touched)

    def build(self, recipe: Recipe) -> RecipeApplication:
        """Rewrite the program's nest by ``recipe`` as ``apply_recipe(...,
        strict=False)`` would, and return what it applied and what it
        refused.  A recipe of band schedules is built from the fork it was
        priced on, and the nest's price joins the table (no total is priced
        for it: the walk adds the nests up)."""
        if not self._on_view(recipe):
            return apply_recipe(self.program, recipe, strict=False)
        view, application = self._schedule(recipe)
        priced = self._priced_state(view)
        # A new nest even when no frame changed: the walk forgets the
        # prices of a nest that is still there (it may be edited in place).
        built = view.materialise()
        set_nest(self.program, self.nest_index, built)
        self.prices.record(built, self.nest_index, self._before, priced)
        return application


def retarget_recipe(recipe: Recipe, nest_index: int, name: str = "") -> Recipe:
    """Return a copy of ``recipe`` with every transformation re-pointed at
    ``nest_index``.

    Recipes in the tuning database were recorded against a nest of the
    program they were tuned on; transfer tuning applies them to the
    structurally equivalent nest of another (normalized) program.  No step
    is mutated after construction, so a step already at ``nest_index``, or
    addressing no single nest (``Fuse``), is shared, not rebuilt.
    """
    steps = [step if getattr(step, "nest_index", nest_index) == nest_index
             else type(step)(**{**step.params(), "nest_index": nest_index})
             for step in recipe.transformations]
    return Recipe(name or f"{recipe.name}@{nest_index}", steps,
                  notes=recipe.notes)
