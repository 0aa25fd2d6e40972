"""A search candidate pays only for what it changes.

Counted per daisy search over the 18 registry ``:a`` programs and
``fuzz:small-0..23`` (a fresh session, an empty database, so every
non-BLAS nest is searched):

* the cost model walks once per distinct (unannotated band, touched names)
  the search prices;
* the nodes after the searched nest are looked up in the call's price
  table once per set of names touched once the nest ran, not once per
  candidate;
* a band asked only about its own order derives no direction vector (a
  band of one loop never is asked about another), and neither does one
  whose other orders all leave a loop bound unbound (the triangular
  bands of syrk, syr2k, correlation and covariance): bounds are checked
  before the vectors are derived;
* the search salts its rng with the nest's memoized canonical fragment and
  serializes nothing.

And, as properties of the whole corpus:

* ``BandView.order_is_legal`` of a band's own order — which asks no
  dependence question — equals ``band_order_is_legal`` with the band's
  direction vectors, on every band of every nest, as written and tiled;
* ``nest_salt`` is the CRC-32 of the nest's sorted ``node_to_dict`` JSON
  on every normalized nest;
* ``apply_recipe`` derives the program's container facts at most once per
  program state, however many of its steps ask about parallelism.
"""

import collections
import contextlib
import json
import zlib

import pytest

from dependence_spec import band_order_is_legal, nest_direction_vectors
from repro.analysis import band as band_module
from repro.analysis import parallelism
from repro.analysis.band import BandView
from repro.analysis.dependence import DependenceTable
from repro.api import Session
from repro.ir import serialization
from repro.ir.nodes import Loop, band_starts
from repro.ir.serialization import node_to_dict
from repro.perf import model as model_module
from repro.perf.model import NodePrices
from repro.scheduler import SearchConfig
from repro.scheduler.base import NestPricer
from repro.scheduler.evolutionary import EvolutionarySearch, nest_salt
from repro.transforms import (Parallelize, Recipe, ReplaceWithLibraryCall,
                              Tile, TransformationError, Vectorize,
                              apply_recipe)
from repro.transforms import base as transforms_base
from repro.transforms.idiom import match_blas3
from repro.workloads import registry as workloads

SEARCHED = ([f"{name}:a" for name in workloads.benchmark_names()]
            + [f"fuzz:small-{seed}" for seed in range(24)])
#: The 454 normalized nests ``nest_salt`` is pinned on.
SALTED = ([f"{name}:{variant}" for name in workloads.benchmark_names()
           for variant in ("a", "b", "npbench")]
          + [f"fuzz:small-{seed}" for seed in range(80)]
          + [f"fuzz:medium-{seed}" for seed in range(8)]
          + ["cloudsc", "erosion"])
SEARCH = SearchConfig(population_size=8, epochs=1, generations_per_epoch=2)


class _Search:
    """What one search did: the (unannotated band, names touched before)
    of each state it priced, each walk, each price-table lookup of a node
    after its nest, each order it asked the legality of, and each
    derivation of direction vectors."""

    def __init__(self, pricer):
        self.pricer = pricer
        self.priced = set()
        self.walks = []
        self.later = []
        self.other_orders = 0
        self.derivations = 0


@pytest.fixture(scope="module")
def searches():
    done, open_ = [], []
    run, price, walk = (EvolutionarySearch.run, NestPricer._price,
                        model_module._NestWalk.traffic)
    cost, legal, derive = (NodePrices.cost, BandView.order_is_legal,
                           DependenceTable.vectors)
    serialized = []

    def counted_run(self, pricer, seeds=None):
        open_.append(_Search(pricer))
        try:
            return run(self, pricer, seeds)
        finally:
            done.append(open_.pop())

    def counted_price(self, view):
        if open_:
            open_[-1].priced.add((view.unannotated(), self._before))
        return price(self, view)

    def counted_walk(self):
        # A sibling nest the search prices is walked on a view of its own.
        if open_ and self.view.traffic is open_[-1].pricer.view.traffic:
            open_[-1].walks.append((self.view.unannotated(),
                                    frozenset(self._touched)))
        return walk(self)

    def counted_cost(self, program, index, before):
        if open_ and index > open_[-1].pricer.nest_index:
            open_[-1].later.append((index, before))
        return cost(self, program, index, before)

    def counted_legal(self, order):
        if open_ and tuple(order) != tuple(self.order()):
            open_[-1].other_orders += 1
        return legal(self, order)

    def counted_derive(table, statements):
        if open_:
            open_[-1].derivations += 1
        return derive(table, statements)

    def counted_to_dict(node):
        if open_:
            serialized.append(node)
        return to_dict(node)

    to_dict = serialization.node_to_dict
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(EvolutionarySearch, "run", counted_run)
        patch.setattr(NestPricer, "_price", counted_price)
        patch.setattr(model_module._NestWalk, "traffic", counted_walk)
        patch.setattr(NodePrices, "cost", counted_cost)
        patch.setattr(BandView, "order_is_legal", counted_legal)
        patch.setattr(DependenceTable, "vectors", counted_derive)
        patch.setattr(serialization, "node_to_dict", counted_to_dict)
        with contextlib.closing(Session(threads=4, search=SEARCH)) as session:
            for name in SEARCHED:
                session.schedule(name)
    return done, serialized


def test_the_corpus_searches_deep_and_one_loop_bands(searches):
    done, _serialized = searches
    depths = collections.Counter(len(search.pricer.view.frames) > 1
                                 for search in done)
    assert depths[True] > 50 and depths[False] > 20, depths


def test_one_walk_per_unannotated_band_and_touched_names(searches):
    done, _serialized = searches
    for search in done:
        assert len(search.walks) == len(set(search.walks))
        assert {(band, frozenset(names)) for band, names in search.walks} \
            == {(band, before) for band, before in search.priced}


def test_later_nodes_are_looked_up_once_per_set_of_touched_names(searches):
    done, _serialized = searches
    with_later = 0
    for search in done:
        assert len(search.later) == len(set(search.later))
        pricer = search.pricer
        later = len(pricer.program.body) - pricer.nest_index - 1
        first = [before for index, before in search.later
                 if index == pricer.nest_index + 1]
        assert len(search.later) == later * len(first)
        with_later += bool(later)
    assert with_later > 30


def test_a_band_asked_only_its_own_order_derives_no_direction_vector(
        searches):
    done, _serialized = searches
    bounded = []
    for search in done:
        assert search.derivations <= (1 if search.other_orders else 0)
        if search.other_orders and not search.derivations:
            bounded.append(search.pricer.program.name)
        if len(search.pricer.view.frames) == 1:
            assert search.other_orders == 0
    assert bounded == ["syrk_a", "syr2k_a", "correlation_a", "covariance_a"]


def test_a_search_serializes_no_nest(searches):
    _done, serialized = searches
    assert serialized == []


# -- properties of the corpus -----------------------------------------------------------


def _normalized(names):
    with contextlib.closing(Session()) as session:
        for name in names:
            yield name, session.normalize(name).program


def test_the_own_order_is_legal_as_band_order_is_legal_says():
    bands = tiled = 0
    for name, program in _normalized(SALTED):
        for body, index in band_starts(program.body):
            nest = body[index]
            view = BandView(nest, program)
            own = view.order()
            expected = band_order_is_legal(
                nest.perfectly_nested_band(), nest_direction_vectors(nest),
                own)
            assert view.order_is_legal(own) == expected, name
            bands += 1
            # The own order of a tiled band: point loops bound by their
            # tile loops' origins.
            try:
                Tile(0, {iterator: 32 for iterator in own}).schedule(view)
            except TransformationError:
                continue
            order = view.order()
            assert view.order_is_legal(order) == band_order_is_legal(
                view.frames, view.vectors(), order), name
            tiled += 1
    assert (bands, tiled) == (571, 507)


def test_nest_salt_is_the_crc_of_the_sorted_nest_json():
    nests = 0
    for name, program in _normalized(SALTED):
        for node in program.body:
            if isinstance(node, Loop):
                expected = zlib.crc32(json.dumps(
                    node_to_dict(node), sort_keys=True).encode("utf-8"))
                assert nest_salt(node) == expected, name
                nests += 1
    assert nests == 454


# -- apply_recipe hands each band schedule the program's facts ---------------------------


def _count_facts(monkeypatch):
    derived = []
    facts = parallelism.container_facts

    def counted(program):
        derived.append(tuple(type(node).__name__ for node in program.body))
        return facts(program)

    for module in (parallelism, band_module, transforms_base):
        if hasattr(module, "container_facts"):
            monkeypatch.setattr(module, "container_facts", counted)
    return derived


def test_apply_recipe_derives_the_facts_once_per_program_state(monkeypatch):
    """The 48 multi-step recipes daisy's searches find for the 18 ``:a``
    programs, applied to a copy of the normalized program: one derivation
    at most, whatever the number of parallelize and vectorize steps (78
    derivations in all when each step's view derived its own)."""
    recipes = []
    with contextlib.closing(Session(threads=4, search=SEARCH)) as session:
        for name in workloads.benchmark_names():
            program = session.normalize(f"{name}:a").program
            response = session.schedule(f"{name}:a")
            recipes += [(program, info.recipe)
                        for info in response.result.nests
                        if info.recipe is not None and len(info.recipe) > 1]
    derived = _count_facts(monkeypatch)
    asking = 0
    for program, recipe in recipes:
        del derived[:]
        apply_recipe(program.copy(), recipe)
        assert len(derived) <= 1, recipe
        asking += sum(isinstance(step, (Parallelize, Vectorize))
                      for step in recipe) > 1
    assert len(recipes) == 48 and asking > 30


def test_a_library_call_in_a_nests_place_drops_the_facts(monkeypatch):
    with contextlib.closing(Session()) as session:
        program = session.normalize("2mm:a").program.copy()
    blas = [index for index, node in enumerate(program.body)
            if isinstance(node, Loop) and match_blas3(node) is not None]
    other = next(index for index, node in enumerate(program.body)
                 if isinstance(node, Loop) and index not in blas)
    derived = _count_facts(monkeypatch)
    recipe = Recipe("mixed", [Parallelize(other), Vectorize(other),
                              ReplaceWithLibraryCall(blas[0]),
                              Parallelize(other), Vectorize(other)])
    application = apply_recipe(program, recipe)
    assert len(application.applied) == 5
    before, after = derived
    assert before.count("LibraryCall") + 1 == after.count("LibraryCall")
