"""Each analysis fact of a schedule call is derived once, and each consumer
asks only the question it needs.

* A ``Session.schedule`` call with daisy — transferring from a seeded
  database, or searching over an empty one — derives the container facts
  of its program once per program state, what a loop carries once per
  (nest, loop, loops inside), and its embedding asks the band loops of the
  nest's one view by position (no view of a band loop of its own).
* Fission asks only whether a pair of children has a dependence: its edges
  are the distinct pairs of two different children that
  :func:`~repro.analysis.dependence.body_dependences` reports.
* The embedding daisy computes from its view is the one ``embed_nest``
  computes, and the database it seeds is the one it always was.
"""

import contextlib
from collections import Counter

import pytest

from repro.analysis import dependence, parallelism
from repro.analysis import band as band_module
from repro.analysis.affine import nest_statements
from repro.analysis.band import BandView
from repro.api import Session
from repro.ir.nodes import LibraryCall, Loop
from repro.normalization import fission
from repro.perf import CostModel
from repro.scheduler import SearchConfig
from repro.scheduler import base as base_module
from repro.scheduler import embedding as embedding_module
from repro.scheduler.base import NestPricer, Scheduler
from repro.scheduler.embedding import embed_nest, embed_view
from repro.transforms.idiom import match_blas3
from repro.workloads import registry as workloads

FAST_SEARCH = SearchConfig(population_size=4, epochs=1, generations_per_epoch=1)
THREADS = 4
VARIANTS = ("a", "b", "npbench")
REGISTRY = [f"{name}:{variant}" for name in workloads.benchmark_names()
            for variant in VARIANTS]


def _fuzz(size_class, count):
    return [f"fuzz:{size_class}-{seed}" for seed in range(count)]


# -- counting one schedule call ---------------------------------------------------------


class _Calls:
    """Per ``Scheduler.schedule`` call: each derivation of container facts
    (the program and the types of its top-level nodes), each dependence
    scan of a loop (its iterator and statements), and each loop of a band
    asked as a loop (which makes a view of its own)."""

    def __init__(self):
        self.open = None
        self.finished = []

    @contextlib.contextmanager
    def installed(self, monkeypatch):
        facts, scan = parallelism.container_facts, parallelism.body_dependences
        schedule, ask = Scheduler.schedule, BandView.parallelism

        def counted_facts(program):
            if self.open is not None:
                self.open["facts"].append(
                    (program, tuple(type(node).__name__
                                    for node in program.body)))
            return facts(program)

        def counted_scan(iterator, children):
            if self.open is not None:
                # The statements themselves are held, so their ids stay
                # unique while the call is counted.
                self.open["scans"].append((iterator, [
                    (statement, enclosing)
                    for child in children for statement, enclosing in child]))
            return scan(iterator, children)

        def counted_ask(view, target):
            if (self.open is not None and isinstance(target, Loop)
                    and target.iterator in view.order()):
                self.open["band_loops_asked"] += 1
            return ask(view, target)

        def counted_schedule(scheduler, program, parameters, **options):
            outer, self.open = self.open, {"facts": [], "scans": [],
                                           "band_loops_asked": 0}
            try:
                result = schedule(scheduler, program, parameters, **options)
            finally:
                call, self.open = self.open, outer
            call["program"] = result.program
            self.finished.append(call)
            return result

        for module in (parallelism, band_module, base_module,
                       embedding_module):
            if hasattr(module, "container_facts"):
                monkeypatch.setattr(module, "container_facts", counted_facts)
        monkeypatch.setattr(parallelism, "body_dependences", counted_scan)
        monkeypatch.setattr(Scheduler, "schedule", counted_schedule)
        monkeypatch.setattr(BandView, "parallelism", counted_ask)
        yield self


def _schedule_corpus(monkeypatch, seeded):
    calls = _Calls()
    with contextlib.closing(Session(threads=THREADS, search=FAST_SEARCH)) \
            as session:
        if seeded:
            session.seed(workloads.benchmark_names())
        with calls.installed(monkeypatch):
            details = Counter()
            for name in REGISTRY + _fuzz("small", 40):
                response = session.schedule(name, scheduler="daisy")
                details.update(info.detail.split(" ")[0]
                               for info in response.result.nests)
    return calls.finished, details


@pytest.fixture(scope="module", params=["seeded", "empty"])
def daisy_calls(request):
    with pytest.MonkeyPatch.context() as monkeypatch:
        yield request.param, _schedule_corpus(monkeypatch,
                                              request.param == "seeded")


def test_the_corpus_takes_the_path_it_is_meant_to(daisy_calls):
    mode, (calls, details) = daisy_calls
    assert calls
    if mode == "seeded":
        assert details["transfer"] > details["evolutionary"] > 0
    else:
        assert details["transfer"] == 0 and details["evolutionary"] > 0


def test_container_facts_once_per_program_state(daisy_calls):
    """The call's program has its container facts derived once per state:
    only a library call put in a nest's place changes what it reads, and
    each other derivation is of the nest as a program of its own (an
    embedding's), once per embedded nest."""
    _mode, (calls, _details) = daisy_calls
    derived = 0
    for call in calls:
        states = [state for program, state in call["facts"]
                  if program is call["program"]]
        assert len(states) == len(set(states)), states
        calls_in_place = sum(isinstance(node, LibraryCall)
                             for node in call["program"].body)
        assert len(states) <= 1 + calls_in_place
        derived += len(states)
        others = [program for program, _state in call["facts"]
                  if program is not call["program"]]
        assert all(len(program.body) == 1 for program in others)
        assert len({id(program.body[0]) for program in others}) \
            == len(others)
    assert derived


def test_what_a_loop_carries_once_per_nest_loop_and_loops_inside(daisy_calls):
    _mode, (calls, _details) = daisy_calls
    scanned = 0
    for call in calls:
        keys = Counter(
            (iterator, tuple((id(statement), enclosing)
                             for statement, enclosing in statements))
            for iterator, statements in call["scans"])
        assert not [key for key, count in keys.items() if count > 1]
        scanned += len(keys)
    assert scanned


def test_the_embedding_asks_band_loops_by_position(daisy_calls):
    _mode, (calls, _details) = daisy_calls
    assert sum(call["band_loops_asked"] for call in calls) == 0


# -- fission asks whether an edge exists ------------------------------------------------


def test_fission_edges_are_the_distinct_pairs_of_the_body_scan(monkeypatch):
    """Every loop ``maximal_loop_fission`` meets while normalizing the
    corpus: its existence-only edges are the ``(source, sink)`` pairs of
    two different children among the loop's dependences."""
    fission_loop = fission.fission_loop
    met = []

    def checked(loop):
        children = [nest_statements(child) for child in loop.body]
        pairs = dict.fromkeys(
            (source, sink) for source, sink, _found
            in dependence.body_dependences(loop.iterator, children)
            if source != sink)
        met.append((fission._dependence_edges(loop) == list(pairs),
                    len(loop.body), len(pairs)))
        return fission_loop(loop)

    monkeypatch.setattr(fission, "fission_loop", checked)
    names = (REGISTRY + _fuzz("small", 80) + _fuzz("medium", 8)
             + ["cloudsc"])
    with contextlib.closing(Session()) as session:
        for name in names:
            session.normalize(name)
    assert all(same for same, _children, _pairs in met)
    assert len(met) > 1000
    assert sum(children > 1 for _same, children, _pairs in met) > 250
    assert sum(pairs > 0 for _same, _children, pairs in met) > 200


# -- the embedding daisy computes from its view -----------------------------------------


def _normalized_nests():
    with contextlib.closing(Session()) as session:
        for name in REGISTRY + _fuzz("small", 80):
            workload, _, suffix = name.partition(":")
            parameters = (workloads.fuzz_program(suffix)[1]
                          if workload == "fuzz"
                          else workloads.benchmark(workload).sizes("large"))
            program = session.normalize(name).program.copy()
            for index, node in enumerate(program.body):
                if isinstance(node, Loop) and match_blas3(node) is None:
                    yield name, program, index, parameters


def test_embed_nest_equals_the_embedding_of_daisys_view():
    """The staged replay's call shape, ``embed_nest(nest, arrays,
    parameters, label)``, and daisy's embedding of its one view agree; the
    view still answers for its program after embedding under the nest's own
    facts."""
    model = CostModel(threads=THREADS)
    nests = 0
    for name, program, index, parameters in _normalized_nests():
        label = f"{name}#{index}"
        nest = program.body[index]
        expected = embed_nest(nest, program.arrays, parameters, label)
        pricer = NestPricer(model, program, index, parameters)
        assert embed_view(pricer.view, label) == expected, label
        fresh = BandView(nest, program)
        for position in range(len(pricer.view.frames)):
            assert pricer.view.parallelism(position) \
                == fresh.parallelism(position), (label, position)
        nests += 1
    assert nests > 200


#: ``TuningDatabase.version`` after seeding the 18 ``:a`` variants with the
#: tests' fast search — the string the view-less embedding produced.
SEEDED_VERSION = "58:182ba104d0757b9e"


def test_seeding_gives_the_same_database():
    with contextlib.closing(Session(threads=THREADS, search=FAST_SEARCH)) \
            as session:
        session.seed(workloads.benchmark_names())
        assert str(session.scheduler("daisy").database.version) \
            == SEEDED_VERSION
