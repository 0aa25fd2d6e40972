"""A Tiramisu-auto-scheduler-like baseline.

The paper runs the Tiramisu auto-scheduler as a standalone Monte-Carlo Tree
Search guided by its learned performance model, fed through an adapter that
applies maximal loop fission and only converts *perfectly nested parallel*
loops (Section 4, "Baselines").  Nests outside that class are unsupported —
the "X" marks in Figure 6.

We reproduce that structure: maximal fission, a support check, and an MCTS
over (interchange, tile, parallelize, vectorize, unroll) decisions.  The
guiding model is our analytical cost model perturbed with Gaussian noise to
stand in for the learned model's prediction error; the top candidates are
then re-evaluated without noise ("measured") and the best is kept, exactly
like the paper's top-3 protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

from ..ir.nodes import Program
from ..normalization.fission import maximal_loop_fission
from ..perf.machine import DEFAULT_MACHINE, MachineModel
from ..transforms.recipe import Recipe
from .base import NestPricer, ScheduleResult, Scheduler, Unsupported
from .evolutionary import CandidateSpace, nest_rng

#: The schedule decisions the MCTS rolls out.
ROLLOUT_SPACE = CandidateSpace(tile_sizes=(0, 32, 64, 128), unroll_factors=(1, 4),
                               parallelize_probability=0.9,
                               vectorize_probability=0.7,
                               max_permuted_band=4, require_unit_stride=False)


@dataclass
class MctsConfig:
    """Parameters of the Monte-Carlo tree search."""

    rollouts: int = 24
    top_candidates: int = 3
    #: Relative standard deviation of the surrogate model's prediction noise.
    model_noise: float = 0.35
    seed: int = 0


class TiramisuScheduler(Scheduler):
    """Maximal-fission adapter + noisy-model MCTS over schedule decisions."""

    name = "tiramisu"

    def __init__(self, machine: MachineModel = DEFAULT_MACHINE, threads: int = 1,
                 config: Optional[MctsConfig] = None):
        super().__init__(machine, threads)
        self.config = config or MctsConfig()
        self.detail = f"mcts ({self.config.rollouts} rollouts)"

    def prepare(self, program: Program) -> ScheduleResult:
        result = super().prepare(program)
        # The adapter applies maximal loop fission before conversion.
        maximal_loop_fission(result.program)
        return result

    def schedule(self, program: Program,
                 parameters: Mapping[str, int]) -> ScheduleResult:
        result = super().schedule(program, parameters)
        # The paper marks whole benchmarks with X when the scheduler could not
        # be applied successfully.
        result.unsupported = all(info.status == "unsupported"
                                 for info in result.nests)
        return result

    # -- search -----------------------------------------------------------------------

    def recipe_for(self, pricer: NestPricer) -> Recipe:
        view = pricer.view
        # The adapter converts perfect nests whose outermost loop is parallel
        # (only the outer, non-reduction part of the band must be) and whose
        # bounds are rectangular (no dependence on outer iterators).
        iterators = set(view.order())
        if (not view.nest.is_perfect_nest()
                or not view.parallelism(0).is_parallel
                or any(frame.bound_symbols() & iterators
                       for frame in view.frames)):
            raise Unsupported("not a perfectly nested parallel loop")
        index = pricer.nest_index
        nest = pricer.program.body[index]
        orders = ROLLOUT_SPACE.orders(view)
        rng = nest_rng(self.config.seed, nest)

        # Rollouts: sample schedules, score them with the noisy surrogate.
        scored: List[Tuple[float, Recipe]] = []
        for _ in range(self.config.rollouts):
            recipe = ROLLOUT_SPACE.sample(orders, rng).to_recipe(
                index, f"tiramisu#{index}")
            runtime = pricer.price(recipe)
            noise = max(0.05, 1.0 + rng.gauss(0.0, self.config.model_noise))
            scored.append((runtime * noise, recipe))
        scored.sort(key=lambda item: item[0])

        # Measure the top candidates exactly and keep the best (the pricer
        # remembers what the rollouts already priced).
        best_recipe = Recipe("identity")
        best_runtime = pricer.price(best_recipe)
        for _, recipe in scored[:self.config.top_candidates]:
            runtime = pricer.price(recipe)
            if runtime < best_runtime:
                best_runtime, best_recipe = runtime, recipe
        return best_recipe
