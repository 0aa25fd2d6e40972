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

from ..analysis.band import BandView
from ..ir.nodes import Loop, Program
from ..normalization.fission import maximal_loop_fission
from ..perf.machine import DEFAULT_MACHINE, MachineModel
from ..perf.model import NodePrices
from ..transforms.recipe import Recipe
from .base import NestPricer, NestScheduleInfo, ScheduleResult, Scheduler
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

    def schedule_nest(self, program: Program, index: int,
                      parameters: Mapping[str, int],
                      prices: NodePrices) -> NestScheduleInfo:
        if not self._supported(program.body[index], program):
            return NestScheduleInfo(index, "unsupported", None,
                                    "not a perfectly nested parallel loop")
        pricer = NestPricer(self.cost_model, program, index, parameters,
                            prices=prices)
        recipe = self._mcts(pricer)
        status = "optimized" if pricer.build(recipe) else "unchanged"
        return NestScheduleInfo(index, status, recipe,
                                f"mcts ({self.config.rollouts} rollouts)")

    # -- support check ------------------------------------------------------------------

    def _supported(self, nest: Loop, program: Program) -> bool:
        if not nest.is_perfect_nest():
            return False
        band = nest.perfectly_nested_band()
        # Only the outer (non-reduction) part of the band must be parallel;
        # require at least the outermost loop to be parallel.
        if not BandView(nest, program).parallelism(0).is_parallel:
            return False
        # Loop bounds must be rectangular (no dependence on outer iterators).
        iterators = {loop.iterator for loop in band}
        return not any(loop.bound_symbols() & iterators for loop in band)

    # -- search -----------------------------------------------------------------------

    def _mcts(self, pricer: NestPricer) -> Recipe:
        index = pricer.nest_index
        nest = pricer.program.body[index]
        orders = ROLLOUT_SPACE.orders(pricer.view)
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
