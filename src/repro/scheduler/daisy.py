"""The daisy normalized auto-scheduler (Section 4).

daisy is the paper's auto-scheduler built on top of a-priori normalization:

1. the session normalizes the program (maximal fission + stride
   minimization) before daisy sees it,
2. every nest matching a BLAS-3 kernel is replaced by the library call,
3. every other nest is optimized with a recipe retrieved from the
   transfer-tuning database: the entry tuned on this very normalized nest
   (looked up by its identity), else the one nearest by embedding
   similarity; if no suitable entry exists, an evolutionary search finds a
   recipe (and stores it).

Because recipes are recorded against *normalized* nests with canonical
iterator names, a recipe found on the A variant of a benchmark applies
unchanged to the normalized B variant — this is the robustness mechanism the
paper evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from ..ir.nodes import Program
from ..perf.machine import DEFAULT_MACHINE, MachineModel
from ..perf.model import NodePrices
from ..transforms.idiom import ReplaceWithLibraryCall, match_blas3
from ..transforms.recipe import Recipe, apply_recipe
from .base import (NestPricer, NestScheduleInfo, ScheduleResult, Scheduler,
                   retarget_recipe)
from .database import TuningDatabase
from .embedding import (PerformanceEmbedding, embed_nest, embed_view,
                        nest_identity)
from .evolutionary import EvolutionarySearch, SearchConfig

#: Maximum embedding distance at which a database recipe is considered a match.
DEFAULT_MAX_DISTANCE = 6.0


@dataclass
class DaisyConfig:
    """Configuration of the daisy scheduler."""

    threads: int = 1
    search: SearchConfig = field(default_factory=SearchConfig)
    max_database_distance: float = DEFAULT_MAX_DISTANCE


class DaisyScheduler(Scheduler):
    """Similarity-based transfer tuning of an already normalized program."""

    name = "daisy"

    def __init__(self, machine: MachineModel = DEFAULT_MACHINE,
                 config: Optional[DaisyConfig] = None,
                 database: Optional[TuningDatabase] = None):
        self.config = config or DaisyConfig()
        super().__init__(machine, self.config.threads)
        self.database = database if database is not None else TuningDatabase()
        self._search = EvolutionarySearch(self.cost_model, self.config.search)

    def tune(self, program: Program, parameters: Mapping[str, int],
             label: Optional[str] = None) -> ScheduleResult:
        """Tune a program (an A variant) and record its recipes in the database.

        Returns the scheduled program so that callers can also use the tuned
        A variant directly.
        """
        return self.schedule(program, parameters, seeding=True,
                             label=label or program.name)

    def schedule_nest(self, program: Program, index: int,
                      parameters: Mapping[str, int], prices: NodePrices,
                      seeding: bool = False,
                      label: Optional[str] = None) -> NestScheduleInfo:
        """Idiom, then transfer, then search.  When ``seeding`` (tuning), the
        transfer step is skipped and what was found is recorded in the
        database under ``label``."""
        nest = program.body[index]
        label = f"{label or program.name}#{index}"
        # The database is the embedding's only reader: embed the nest to
        # seed the database, or to query one that holds entries (a BLAS
        # nest queries nothing, nor does a negative distance bound: no
        # transfer, no seeds).
        embeds = seeding or (len(self.database) > 0
                             and self.config.max_database_distance >= 0)

        # 1. BLAS-3 idiom detection on the normalized nest.
        if match_blas3(nest) is not None:
            recipe = Recipe(f"{label}:blas", [ReplaceWithLibraryCall(index)])
            if seeding:
                self.database.add(
                    embed_nest(nest, program.arrays, parameters, label=label),
                    recipe, nest=nest_identity(nest, program.arrays,
                                               parameters))
            application = apply_recipe(program, recipe, strict=False)
            status = "optimized" if application.fully_applied else "failed"
            return NestScheduleInfo(index, status, recipe, "blas idiom")

        # One view of the nest from here on: its embedding, the recipe it
        # transfers or the search, and the price of what is built.
        pricer = NestPricer(self.cost_model, program, index, parameters,
                            prices=prices)
        identity = (nest_identity(nest, program.arrays, parameters)
                    if embeds else None)
        embedding = entry = None
        if seeding:
            embedding = embed_view(pricer.view, label)
        elif embeds:
            # 2. Transfer tuning.  An entry tuned on this very nest has its
            #    embedding and is the nearest entry: neither is computed.
            #    Otherwise, the nearest entry within the distance bound.
            entry = self.database.exact(identity)
            if entry is not None:
                embedding = PerformanceEmbedding(label, entry.embedding)
            else:
                embedding = embed_view(pricer.view, label)
                entry = self.database.best_match(
                    embedding, self.config.max_database_distance)
        if entry is not None:
            recipe = retarget_recipe(entry.recipe, index)
            if pricer.build(recipe).applied:
                return NestScheduleInfo(index, "optimized", recipe,
                                        f"transfer from {entry.label}")
            # The recipe could not be applied at all: fall through.

        # 3. Evolutionary search (seeded with the recipes of the most similar
        #    nests, mirroring the epoch re-seeding of the paper).
        seeds = ([] if embedding is None else
                 [retarget_recipe(neighbor.recipe, index) for _distance, neighbor
                  in self.database.query(embedding, k=10)])
        outcome = self._search.run(pricer, seeds)
        pricer.build(outcome.recipe)
        if seeding:
            self.database.add(embedding, outcome.recipe,
                              runtime=outcome.runtime, nest=identity)
        return NestScheduleInfo(index, "optimized", outcome.recipe,
                                f"evolutionary search ({outcome.evaluated} evals)")
