"""One memo, on the view: a search asks its own ``BandView``.

* the legal orders a search draws from (``CandidateSpace.orders(view)``)
  are the orders ``legal_permutations`` of the nest gives, in its
  sequence, for both search spaces and every nest of the corpus;
* a search derives its nest's direction vectors at most once — none when
  its band is one loop, whose only order is its own, or when a loop bound
  alone refuses every other order;
* a scheduler whose distance bound is negative (``evolutionary``) reads
  no database when it schedules.
"""

import collections
import contextlib

import pytest
from helpers import fast_session

from dependence_spec import legal_permutations
from repro.analysis.band import BandView
from repro.analysis.dependence import DependenceTable
from repro.api import Session
from repro.ir.nodes import Loop
from repro.scheduler.database import TuningDatabase
from repro.scheduler.evolutionary import SEARCH_SPACE, EvolutionarySearch
from repro.scheduler.tiramisu import ROLLOUT_SPACE
from repro.workloads import registry as workloads

VARIANTS = ("a", "b", "npbench")


def _spec_orders(space, nest):
    """The orders a search drew from before the view answered: the band's
    own order when it is too deep to permute, else ``legal_permutations``
    (the specification's)."""
    band = nest.perfectly_nested_band()
    if len(band) > space.max_permuted_band:
        return [tuple(loop.iterator for loop in band)]
    return legal_permutations(nest)


def _corpus():
    """The 54 registry variants, small and medium fuzz programs and
    CLOUDSC, each normalized under ``a-priori``."""
    return ([f"{name}:{variant}" for name in workloads.benchmark_names()
             for variant in VARIANTS]
            + [f"fuzz:small-{seed}" for seed in range(40)]
            + [f"fuzz:medium-{seed}" for seed in range(20)]
            + ["cloudsc"])


class TestOrdersFromTheView:
    def test_orders_equal_legal_permutations_in_order(self):
        depths, choices = [], collections.Counter()
        with contextlib.closing(Session()) as session:
            for name in _corpus():
                program = session.normalize(name, "a-priori").program
                for nest in program.body:
                    if not isinstance(nest, Loop):
                        continue
                    depths.append(len(nest.perfectly_nested_band()))
                    view = BandView(nest.copy().freeze(), program)
                    for space in (SEARCH_SPACE, ROLLOUT_SPACE):
                        orders = space.orders(view)
                        assert orders == _spec_orders(space, nest), name
                        choices[space] += len(orders) > 1
        # 394 top-level nests by band depth; 167 have more than one legal
        # order (no band is deeper than either space permutes).
        assert collections.Counter(depths) == {1: 186, 2: 163, 3: 39, 4: 6}
        assert choices == {SEARCH_SPACE: 167, ROLLOUT_SPACE: 167}


class TestOneDerivationPerSearch:
    def test_each_search_derives_the_direction_vectors_once(self, monkeypatch):
        """A fresh session scheduling the 18 registry ``:a`` programs runs
        49 searches; each asks its view's table for the direction vectors
        at most once, for its legal orders and every candidate together.
        The 18 over a band of one loop, which is only ever asked about its
        own order, derive none, nor do the 4 over a triangular band, whose
        other order leaves a loop bound unbound and so is refused before
        any vector is derived."""
        derivations = []
        per_search = []
        derive = DependenceTable.vectors
        run = EvolutionarySearch.run

        def counted(table, statements):
            derivations.append(1)
            return derive(table, statements)

        def search(self, pricer, seeds=None):
            del derivations[:]
            outcome = run(self, pricer, seeds)
            per_search.append((len(pricer.view.frames) > 1, len(derivations),
                               pricer.program.name))
            return outcome

        monkeypatch.setattr(DependenceTable, "vectors", counted)
        monkeypatch.setattr(EvolutionarySearch, "run", search)
        with contextlib.closing(Session(threads=4)) as session:
            for name in workloads.benchmark_names():
                session.schedule(f"{name}:a")
        assert len(per_search) == 49
        assert sum(not deep for deep, _, _ in per_search) == 18
        assert all(count <= deep for deep, count, _ in per_search)
        assert [name for deep, count, name in per_search
                if deep and not count] == ["syrk_a", "syr2k_a",
                                           "correlation_a", "covariance_a"]


class TestNegativeDistanceReadsNoDatabase:
    def test_evolutionary_schedules_as_on_an_empty_database(self, monkeypatch):
        """A database tuned with daisy holds entries; ``evolutionary``
        neither transfers nor seeds from them, so it schedules as it does
        over an empty database."""
        with contextlib.closing(fast_session()) as empty:
            expected = empty.schedule("2mm:a", scheduler="evolutionary")

        reads = []
        for method in ("query", "best_match"):
            original = getattr(TuningDatabase, method)
            monkeypatch.setattr(
                TuningDatabase, method,
                lambda self, *args, _name=method, _original=original, **kw:
                reads.append(_name) or _original(self, *args, **kw))
        with contextlib.closing(fast_session()) as session:
            session.tune("gemm:a")
            session.tune("atax:a")
            assert len(session.database) == 6
            del reads[:]
            response = session.schedule("2mm:a", scheduler="evolutionary")
        assert reads == []
        assert ([info.to_dict() for info in response.result.nests]
                == [info.to_dict() for info in expected.result.nests])

    @pytest.mark.parametrize("scheduler", ["daisy", "evolutionary"])
    def test_tuning_still_records(self, scheduler):
        with contextlib.closing(fast_session()) as session:
            session.tune("gemm:a", scheduler=scheduler)
            assert len(session.database) > 0
