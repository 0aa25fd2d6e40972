"""Native-compiler baselines (icc and clang).

The paper compares against ``icc -O3 -parallel`` (auto-vectorization plus
auto-parallelization) and uses ``clang -O3`` as the plain baseline in the
ablation study.  Neither restructures loop nests: the developer's loop order
is executed as written.  These baselines reproduce that behavior:

* ``ClangScheduler`` vectorizes the innermost loop when it is contiguous and
  free of (non-reduction) loop-carried dependences; nothing else.
* ``IccScheduler`` additionally auto-parallelizes the outermost loop of each
  nest when it can prove it parallel.
"""

from __future__ import annotations

from ..transforms.parallelize import Parallelize, Vectorize
from ..transforms.recipe import Recipe
from .base import NestPricer, Scheduler


def compiler_recipe(name: str, pricer: NestPricer,
                    auto_parallel: bool) -> Recipe:
    """What an optimizing compiler does to a nest as written: vectorize the
    innermost loop, and with ``auto_parallel`` run the outermost loop in
    parallel when independence can be proven."""
    index = pricer.nest_index
    recipe = Recipe(f"{name}#{index}")
    if auto_parallel and pricer.view.parallelism(0).is_parallel:
        recipe.add(Parallelize(index))
    recipe.add(Vectorize(index, require_unit_stride=True))
    return recipe


class ClangScheduler(Scheduler):
    """``clang -O3``: innermost-loop auto-vectorization only."""

    name = "clang"

    def recipe_for(self, pricer: NestPricer) -> Recipe:
        return compiler_recipe(self.name, pricer, auto_parallel=False)


class IccScheduler(Scheduler):
    """``icc -O3 -parallel``: auto-vectorization plus auto-parallelization."""

    name = "icc"

    def recipe_for(self, pricer: NestPricer) -> Recipe:
        return compiler_recipe(self.name, pricer, auto_parallel=True)
