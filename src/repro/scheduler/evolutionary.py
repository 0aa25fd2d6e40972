"""Evolutionary search over transformation recipes.

The optimizations for non-BLAS loop nests in daisy's database are found with
an evolutionary search: candidate recipes are seeded, mutated and selected
over several epochs, with the runtime (here: the performance model) as the
fitness function, and re-seeded from the best recipes of the most similar
loop nests (Section 4, "Seeding a Scheduling Database").
"""

from __future__ import annotations

import json
import random
import zlib
from dataclasses import dataclass
from itertools import permutations
from typing import (Dict, List, Mapping, NamedTuple, Optional, Sequence,
                    Tuple)

from ..analysis.band import BandView
from ..ir.canonical import node_fragment
from ..ir.nodes import Loop, Program
from ..perf.model import CostModel
from ..transforms.base import TransformationError
from ..transforms.interchange import Interchange
from ..transforms.parallelize import Parallelize, Unroll, Vectorize
from ..transforms.recipe import Recipe
from ..transforms.tiling import Tile
from .base import NestPricer


#: What precedes a computation's label in a canonical fragment (which
#: holds it stripped, as ``""``).
_LABEL = '"kind": "computation", "name": '


def nest_salt(nest: Loop) -> int:
    """A deterministic salt derived from a nest's content: the CRC-32 of
    the nest's ``node_to_dict`` as JSON with sorted keys, spelled as its
    memoized canonical fragment with each computation's label put back, in
    pre-order (a fragment strips labels; every other key is the same)."""
    pieces = node_fragment(nest).split(_LABEL + '""')
    labels = [statement.name for statement in nest.iter_computations()]
    text = pieces[0] + "".join(
        _LABEL + json.dumps(label) + piece
        for label, piece in zip(labels, pieces[1:]))
    return zlib.crc32(text.encode("utf-8"))


def nest_rng(seed: int, nest: Loop) -> random.Random:
    """A fresh rng for one search over ``nest``.

    Salting the seed with the nest's content makes (a) repeated searches of
    the same nest reproducible regardless of call order or concurrency —
    which also makes one scheduler instance safe to share across batch
    threads — while (b) different nests still explore different candidate
    sequences.
    """
    return random.Random(f"{seed}:{nest_salt(nest)}")


@dataclass
class SearchConfig:
    """Parameters of the evolutionary search."""

    population_size: int = 8
    epochs: int = 2
    generations_per_epoch: int = 3
    mutation_rate: float = 0.4
    elite: int = 2
    seed: int = 0


@dataclass
class SearchOutcome:
    """Best recipe found for one nest."""

    recipe: Recipe
    runtime: float
    evaluated: int


class Candidate(NamedTuple):
    """One candidate schedule of a nest (a value: searches hash it)."""

    order: Tuple[str, ...]
    #: ``(iterator, tile size)`` per band loop, in ``order``.
    tile_sizes: Tuple[Tuple[str, int], ...]
    parallelize: bool
    vectorize: bool
    unroll: int
    require_unit_stride: bool

    def to_recipe(self, nest_index: int, name: str = "candidate") -> Recipe:
        recipe = Recipe(name)
        recipe.add(Interchange(nest_index, list(self.order)))
        active_tiles = {k: v for k, v in self.tile_sizes if v > 1}
        if active_tiles:
            recipe.add(Tile(nest_index, active_tiles))
        if self.parallelize:
            recipe.add(Parallelize(nest_index))
        if self.vectorize:
            recipe.add(Vectorize(nest_index,
                                 require_unit_stride=self.require_unit_stride))
        if self.unroll > 1:
            recipe.add(Unroll(nest_index, factor=self.unroll))
        return recipe


@dataclass(frozen=True)
class CandidateSpace:
    """The schedules a search draws its candidates from."""

    #: Candidate tile sizes (0 means "do not tile this loop").
    tile_sizes: Tuple[int, ...] = (0, 16, 32, 64, 128)
    unroll_factors: Tuple[int, ...] = (1, 2, 4, 8)
    parallelize_probability: float = 0.8
    vectorize_probability: float = 0.8
    #: Bands deeper than this keep the order they have.
    max_permuted_band: int = 5
    require_unit_stride: bool = True

    def orders(self, view: BandView) -> List[Tuple[str, ...]]:
        """The legal orders of the view's band, in the sequence
        ``legal_permutations`` of its nest gives them."""
        band = view.order()
        if len(band) > self.max_permuted_band:
            return [tuple(band)]
        return [order for order in permutations(band)
                if view.order_is_legal(order)]

    def sample(self, orders: Sequence[Tuple[str, ...]],
               rng: random.Random) -> Candidate:
        order = tuple(rng.choice(orders))
        return Candidate(
            order=order,
            tile_sizes=tuple((iterator, rng.choice(self.tile_sizes))
                             for iterator in order),
            parallelize=rng.random() < self.parallelize_probability,
            vectorize=rng.random() < self.vectorize_probability,
            unroll=rng.choice(self.unroll_factors),
            require_unit_stride=self.require_unit_stride,
        )

    def mutate(self, candidate: Candidate, orders: Sequence[Tuple[str, ...]],
               rng: random.Random) -> Candidate:
        roll = rng.random()
        if roll < 0.25:
            return candidate._replace(order=tuple(rng.choice(orders)))
        if roll < 0.6 and candidate.tile_sizes:
            retiled = rng.choice([name for name, _ in candidate.tile_sizes])
            size = rng.choice(self.tile_sizes)
            return candidate._replace(tile_sizes=tuple(
                (name, size if name == retiled else old)
                for name, old in candidate.tile_sizes))
        if roll < 0.75:
            return candidate._replace(parallelize=not candidate.parallelize)
        if roll < 0.9:
            return candidate._replace(vectorize=not candidate.vectorize)
        return candidate._replace(unroll=rng.choice(self.unroll_factors))


#: The space the evolutionary search explores.
SEARCH_SPACE = CandidateSpace()


class EvolutionarySearch:
    """Evolutionary recipe search for a single top-level loop nest."""

    def __init__(self, cost_model: CostModel, config: Optional[SearchConfig] = None):
        self.cost_model = cost_model
        self.config = config or SearchConfig()

    def search(self, program: Program, nest_index: int,
               parameters: Mapping[str, int],
               seed_recipes: Optional[Sequence[Recipe]] = None
               ) -> SearchOutcome:
        """Search for the best recipe for one nest of ``program``.

        ``seed_recipes`` (e.g. the best recipes of the most similar nests in
        the database, or Tiramisu-style candidates) are priced first, after
        being re-targeted to ``nest_index`` by the caller.
        """
        if not isinstance(program.body[nest_index], Loop):
            raise TransformationError(f"node {nest_index} is not a loop nest")
        return self.run(NestPricer(self.cost_model, program, nest_index,
                                   parameters), seed_recipes)

    def run(self, pricer: NestPricer,
            seed_recipes: Optional[Sequence[Recipe]] = None) -> SearchOutcome:
        """:meth:`search` of the nest ``pricer`` prices; the caller builds
        the winner with ``pricer.build(outcome.recipe)``."""
        nest_index = pricer.nest_index
        nest = pricer.program.body[nest_index]
        space = SEARCH_SPACE
        orders = space.orders(pricer.view)
        rng = nest_rng(self.config.seed, nest)
        population = [space.sample(orders, rng)
                      for _ in range(self.config.population_size)]

        evaluated = 0
        best_runtime = float("inf")
        best_recipe = Recipe("identity")

        def consider(recipe: Recipe) -> float:
            nonlocal evaluated, best_runtime, best_recipe
            runtime = pricer.price(recipe)
            evaluated += 1
            if runtime < best_runtime:
                best_runtime, best_recipe = runtime, recipe
            return runtime

        #: An elite carried into the next generation is evaluated again,
        #: not scheduled and priced again.
        runtimes: Dict[Candidate, float] = {}

        def consider_candidate(candidate: Candidate) -> float:
            nonlocal evaluated
            runtime = runtimes.get(candidate)
            if runtime is None:
                runtime = runtimes[candidate] = consider(
                    candidate.to_recipe(nest_index))
            else:
                evaluated += 1  # it cannot beat itself
            return runtime

        for seed_recipe in (seed_recipes or []):
            consider(seed_recipe)

        for _epoch in range(self.config.epochs):
            for _generation in range(self.config.generations_per_epoch):
                scored = [(consider_candidate(candidate), candidate)
                          for candidate in population]
                scored.sort(key=lambda item: item[0])
                elite = [candidate for _, candidate in scored[:self.config.elite]]
                next_population = list(elite)
                while len(next_population) < self.config.population_size:
                    parent = rng.choice(elite)
                    if rng.random() < self.config.mutation_rate:
                        next_population.append(space.mutate(parent, orders, rng))
                    else:
                        next_population.append(space.sample(orders, rng))
                population = next_population

        # Baseline: leaving the nest untouched must also be considered.
        consider(Recipe("identity"))

        return SearchOutcome(recipe=best_recipe, runtime=best_runtime,
                             evaluated=evaluated)
