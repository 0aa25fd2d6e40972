"""The pricing contract of a search, checked on what the searches price.

A search prices a schedule as ``CostModel.estimate_seconds`` of a copy of
the program with the recipe applied, bit for bit — while the cost model
walks each unannotated band once per search, each sibling nest is priced
once per ``Scheduler.schedule`` call, and the winner is built from the
frames that were priced.  Every scheduler builds its nests on a
``NestPricer``: daisy's evolutionary search, tiramisu's rollouts and the
recipes of the other seven schedulers run over the 54 registry variants
and ``fuzz:small-0..23``, and as they run:

* every schedule the searches price equals the from-scratch price of
  ``apply_recipe`` on a copy, and so does every neighbour of one daisy
  priced that differs from it only in its parallelize / vectorize / unroll
  steps (priced on the same pricer, so from the walk the schedule left);
* the program the pricer builds from each recipe has the
  ``node_fragment`` that ``apply_recipe`` builds, and the same steps
  applied and refused, with the same reasons;
* ``response.runtime_s`` equals the scheduler's from-scratch ``price`` of
  ``response.program``.
"""

import itertools

import pytest

from repro.api import Session
from repro.ir import ProgramBuilder
from repro.ir.canonical import node_fragment
from repro.perf import CostModel
from repro.scheduler import MctsConfig, SearchConfig
from repro.scheduler.base import NestPricer, NestScheduleInfo, Scheduler
from repro.transforms import (Interchange, Parallelize, Recipe, Tile, Unroll,
                              Vectorize, apply_recipe)
from repro.workloads import registry as workloads

THREADS = 4
CORPUS = ([f"{name}:{variant}" for name in workloads.benchmark_names()
           for variant in ("a", "b", "npbench")]
          + [f"fuzz:small-{seed}" for seed in range(24)])
SCHEDULERS = ("daisy", "tiramisu", "evolutionary", "clang", "icc", "numpy",
              "numba", "dace", "polly")


def _parameters(name):
    workload, _, suffix = name.partition(":")
    if workload == "fuzz":
        return workloads.fuzz_program(suffix)[1]
    return workloads.benchmark(workload).sizes("large")


def _reference(pricer, recipe):
    """What a price means: the cost model on a full copy of the program
    with the recipe applied."""
    trial = pricer.program.copy()
    apply_recipe(trial, recipe, strict=False)
    return pricer.cost_model.estimate_seconds(trial, pricer.parameters)


def _neighbours(recipe, index):
    """``recipe``'s interchange and tiling with every combination of a
    parallelize, a vectorize and an unroll step."""
    kept = [step for step in recipe if isinstance(step, (Interchange, Tile))]
    unit_stride = next((step.require_unit_stride for step in recipe
                        if isinstance(step, Vectorize)), True)
    for parallel, vector, unroll in itertools.product((False, True),
                                                      (False, True), (1, 4)):
        steps = list(kept)
        if parallel:
            steps.append(Parallelize(index))
        if vector:
            steps.append(Vectorize(index, require_unit_stride=unit_stride))
        if unroll > 1:
            steps.append(Unroll(index, factor=unroll))
        yield Recipe("neighbour", steps)


@pytest.fixture(scope="module")
def contract():
    """Schedule the corpus with every scheduler, checking every price and
    every build as it happens; returns what was checked."""
    price, build = NestPricer.price, NestPricer.build
    counts = {"priced": 0, "neighbours": 0, "built": 0, "refused": 0,
              "replies": 0}
    neighboured = set()
    with_neighbours = True

    def checked_price(self, recipe):
        seconds = price(self, recipe)
        assert seconds == _reference(self, recipe), recipe.to_dict()
        counts["priced"] += 1
        bands = repr([step.to_dict() for step in recipe
                      if isinstance(step, (Interchange, Tile))])
        if with_neighbours and (id(self), bands) not in neighboured:
            neighboured.add((id(self), bands))
            for neighbour in _neighbours(recipe, self.nest_index):
                assert price(self, neighbour) == _reference(self, neighbour), \
                    neighbour.to_dict()
                counts["neighbours"] += 1
        return seconds

    def checked_build(self, recipe):
        expected = self.program.copy()
        application = apply_recipe(expected, recipe, strict=False)
        built = build(self, recipe)
        assert built.applied == application.applied, recipe.to_dict()
        assert built.failed == application.failed, recipe.to_dict()
        assert ([node_fragment(node) for node in self.program.body]
                == [node_fragment(node) for node in expected.body])
        counts["built"] += 1
        counts["refused"] += len(built.failed)
        return built

    NestPricer.price, NestPricer.build = checked_price, checked_build
    try:
        for scheduler in SCHEDULERS:
            # The searches price through one NestPricer; the neighbours of
            # daisy's suffice.
            with_neighbours = scheduler == "daisy"
            session = Session(threads=THREADS, search=SearchConfig(
                population_size=4, epochs=1, generations_per_epoch=1),
                mcts=MctsConfig(rollouts=4, top_candidates=2))
            for name in CORPUS:
                parameters = _parameters(name)
                response = session.schedule(name, parameters,
                                            scheduler=scheduler)
                assert response.runtime_s == session.scheduler(
                    scheduler).price(response.program, parameters), \
                    (scheduler, name)
                counts["replies"] += 1
            session.close()
    finally:
        NestPricer.price, NestPricer.build = price, build
    return counts


def test_every_priced_schedule_and_its_flag_neighbours(contract):
    assert contract["priced"] > 1000
    assert contract["neighbours"] >= 8 * 300


def test_every_winner_is_built_as_apply_recipe_builds_it(contract):
    assert contract["built"] > 100
    assert contract["refused"] > 100


def test_runtime_is_the_estimate_of_the_program(contract):
    assert contract["replies"] == len(SCHEDULERS) * len(CORPUS)


def test_a_cold_pass_walks_each_band_once_and_each_sibling_once():
    """The 18 registry ``:a`` programs in a fresh session (the
    ``cold_search`` pass): of 833 candidates evaluated, 680 are priced (an
    elite carried into the next generation is not priced again) and end in
    650 schedules; the cost model walks each unannotated band once per
    search, and within one schedule call the table prices each sibling once
    per set of touched names and never a nest a search built (its price
    was recorded)."""
    from repro.analysis.band import BandView
    from repro.perf.model import _NestWalk

    views, walked, view_walks, nodes, built = [], [], [], [], set()
    asked = []
    estimate_node, traffic, build, price = (
        CostModel.estimate_node, _NestWalk.traffic, NestPricer.build,
        NestPricer.price)

    def counting_node(self, node, program, parameters, index, touched):
        if not isinstance(node, BandView):
            nodes.append((node, index, frozenset(touched)))
            return estimate_node(self, node, program, parameters, index,
                                 touched)
        views.append(node)  # held, so the ids of their memos stay unique
        del walked[:]
        cost = estimate_node(self, node, program, parameters, index, touched)
        view_walks.extend(walked)
        return cost

    def counting_walk(self):
        walked.append((id(self.view.traffic), self.view.unannotated()))
        return traffic(self)

    def recording_build(self, recipe):
        application = build(self, recipe)
        built.add(id(self.program.body[self.nest_index]))
        return application

    def counting_price(self, recipe):
        asked.append(recipe)
        return price(self, recipe)

    session = Session(threads=THREADS, search=SearchConfig(
        population_size=8, epochs=1, generations_per_epoch=2))
    CostModel.estimate_node, _NestWalk.traffic = counting_node, counting_walk
    NestPricer.build, NestPricer.price = recording_build, counting_price
    try:
        priced = evaluated = 0
        for name in workloads.benchmark_names():
            del nodes[:]
            built.clear()
            response = session.schedule(f"{name}:a")
            evaluated += sum(int(info.detail.split("(")[1].split()[0])
                             for info in response.result.nests
                             if info.detail.startswith("evolutionary"))
            keys = [(id(node), index, names) for node, index, names in nodes]
            assert len(keys) == len(set(keys)), name
            assert not built & {id(node) for node, _, _ in nodes}, name
            priced += len(nodes)
    finally:
        CostModel.estimate_node, _NestWalk.traffic = estimate_node, traffic
        NestPricer.build, NestPricer.price = build, price
        session.close()
    assert evaluated == 833 and len(asked) == 680
    assert len(views) == 650
    assert len(view_walks) == len(set(view_walks)) == 433
    assert priced == 55


def test_a_nest_edited_in_place_is_priced_again():
    """A search prices the nest after it as a sibling; then a recipe step
    aimed below that nest's band edits it in place.  The walk's price is
    still the estimate of the program it returns."""
    b = ProgramBuilder("in_place", parameters=["N", "M"])
    b.add_array("A", ("N", "M"))
    b.add_array("r", ("N",))
    with b.loop("i", 0, "N"):
        with b.loop("j", 0, "M"):
            b.assign(("A", "i", "j"), b.read("A", "i", "j") * 2.0)
    with b.loop("i", 0, "N"):
        b.assign(("r", "i"), b.read("r", "i") + 1.0)
        with b.loop("k", 0, "M"):
            b.assign(("r", "i"), b.read("r", "i") + b.read("A", "i", "k"))
    program, parameters = b.finish(), {"N": 300, "M": 200}

    class SearchThenEditBelow(Scheduler):
        name = "search-then-edit-below"

        def schedule_nest(self, program, index, parameters, prices):
            if index == 0:
                pricer = NestPricer(self.cost_model, program, index,
                                    parameters, prices=prices)
                recipe = Recipe("search", [Parallelize(index)])
                pricer.price(recipe)
                pricer.build(recipe)
            else:
                nest = program.body[index]
                apply_recipe(program, Recipe("below", [Unroll(index, "k", 4)]))
                assert program.body[index] is nest
            return NestScheduleInfo(index, "optimized")

    result = SearchThenEditBelow(threads=THREADS).schedule(program, parameters)
    assert result.program.body[1].body[1].unroll == 4
    model = CostModel(threads=THREADS)
    assert result.runtime_s == model.estimate_seconds(result.program,
                                                      parameters)
    assert result.runtime_s != model.estimate_seconds(program, parameters)
