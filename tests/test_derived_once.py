"""Each analysis fact of a schedule call is derived once, and each consumer
asks only the question it needs.

* A ``Session.schedule`` call with any of the nine schedulers (daisy
  transferring from a seeded database or searching over an empty one) —
  derives the container facts of its program once per program state, what
  a loop carries once per (nest, loop, loops inside), and asks the band
  loops of a nest's one view by position (no view of a band loop of its
  own).  Every view it makes is its pricers' or the cost model's: no
  scheduler's hook and no ``apply_recipe`` beside the pricer views a nest,
  and a pricer builds the nest from the view it priced (a compiler
  baseline views each nest once).
* Fission asks only whether a pair of children has a dependence: its edges
  are the distinct pairs of two different children that the body scan the
  dependence table replaced (``dependence_spec.body_dependences``)
  reports.
* The embedding daisy computes from its view is the one ``embed_nest``
  computes, and the database it seeds is the one it always was.
"""

import contextlib
import functools
import sys
from collections import Counter

import pytest

import dependence_spec
from repro.analysis import parallelism
from repro.analysis import band as band_module
from repro.analysis.affine import nest_statements
from repro.analysis.band import BandView
from repro.analysis.dependence import DependenceTable
from repro.api import Session
from repro.ir.nodes import LibraryCall, Loop
from repro.normalization import fission
from repro.perf import CostModel
from repro.scheduler import MctsConfig, SearchConfig
from repro.scheduler import base as base_module
from repro.scheduler import embedding as embedding_module
from repro.scheduler.base import NestPricer, Scheduler
from repro.scheduler.embedding import embed_nest, embed_view
from repro.transforms.idiom import match_blas3
from repro.workloads import registry as workloads

FAST_SEARCH = SearchConfig(population_size=4, epochs=1, generations_per_epoch=1)
FAST_MCTS = MctsConfig(rollouts=4, top_candidates=2)
#: The seven baselines; with daisy and the evolutionary search, every
#: scheduler the registry holds.
BASELINES = ("clang", "icc", "numpy", "numba", "dace", "polly", "tiramisu")
#: The maker of a view is the innermost function of ``repro.scheduler`` on
#: the stack, or a view asked about a loop below its band (which views
#: that loop).
SCHEDULER_PACKAGE = "/repro/scheduler/"
BELOW_THE_BAND = BandView.parallelism.__code__
THREADS = 4
VARIANTS = ("a", "b", "npbench")
REGISTRY = [f"{name}:{variant}" for name in workloads.benchmark_names()
            for variant in VARIANTS]


def _maker(frame):
    """``Class.method`` of the function a frame runs, the class being the
    one of its ``self`` that defines it (``co_qualname`` is 3.11+; a
    counting wrapper stands for what it wraps), or the bare name of a
    function that is not a method."""
    code = frame.f_code
    if code is BELOW_THE_BAND:
        return "BandView.parallelism"
    owner = frame.f_locals.get("self")
    for cls in type(owner).__mro__ if owner is not None else ():
        function = cls.__dict__.get(code.co_name)
        function = getattr(function, "__wrapped__", function)
        if getattr(function, "__code__", None) is code:
            return f"{cls.__name__}.{code.co_name}"
    return code.co_name


def _fuzz(size_class, count):
    return [f"fuzz:{size_class}-{seed}" for seed in range(count)]


# -- counting one schedule call ---------------------------------------------------------


class _Calls:
    """Per ``Scheduler.schedule`` call: each derivation of container facts
    (the program and the types of its top-level nodes), each dependence
    scan of a loop (its iterator and statements), each loop of a band
    asked as a loop (which makes a view of its own), and the maker of each
    view (the innermost function of ``repro.scheduler`` on the stack)."""

    def __init__(self):
        self.open = None
        self.finished = []

    @contextlib.contextmanager
    def installed(self, monkeypatch):
        facts, scan = parallelism.container_facts, DependenceTable.carried
        schedule, ask = Scheduler.schedule, BandView.parallelism
        make_view, make_pricer = BandView.__init__, NestPricer.__init__

        def counted_facts(program):
            if self.open is not None:
                self.open["facts"].append(
                    (program, tuple(type(node).__name__
                                    for node in program.body)))
            return facts(program)

        def counted_scan(table, iterator, children):
            if self.open is not None:
                # The statements themselves are held, so their ids stay
                # unique while the call is counted.
                self.open["scans"].append((iterator, [
                    (statement, enclosing)
                    for child in children for statement, enclosing in child]))
            return scan(table, iterator, children)

        def counted_ask(view, target):
            if (self.open is not None and isinstance(target, Loop)
                    and target.iterator in view.order()):
                self.open["band_loops_asked"] += 1
            return ask(view, target)

        def counted_view(band_view, *args, **kwargs):
            if self.open is not None:
                frame = sys._getframe(1)
                while not (SCHEDULER_PACKAGE in frame.f_code.co_filename
                           or frame.f_code is BELOW_THE_BAND):
                    frame = frame.f_back
                self.open["views"].append(_maker(frame))
            make_view(band_view, *args, **kwargs)

        @functools.wraps(make_pricer)
        def counted_pricer(pricer, *args, **kwargs):
            if self.open is not None:
                self.open["pricers"] += 1
            make_pricer(pricer, *args, **kwargs)

        def counted_schedule(scheduler, program, parameters, **options):
            outer, self.open = self.open, {"facts": [], "scans": [],
                                           "band_loops_asked": 0,
                                           "views": [], "pricers": 0}
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
        monkeypatch.setattr(DependenceTable, "carried", counted_scan)
        monkeypatch.setattr(Scheduler, "schedule", counted_schedule)
        monkeypatch.setattr(BandView, "parallelism", counted_ask)
        monkeypatch.setattr(BandView, "__init__", counted_view)
        monkeypatch.setattr(NestPricer, "__init__", counted_pricer)
        yield self


def _schedule_corpus(monkeypatch, scheduler, seeded):
    calls = _Calls()
    with contextlib.closing(Session(threads=THREADS, search=FAST_SEARCH,
                                    mcts=FAST_MCTS)) as session:
        if seeded:
            session.seed(workloads.benchmark_names())
        with calls.installed(monkeypatch):
            details = Counter()
            for name in REGISTRY + _fuzz("small", 40):
                response = session.schedule(name, scheduler=scheduler)
                details.update(info.detail.split(" ")[0]
                               for info in response.result.nests)
    return calls.finished, details


#: ``(scheduler, seeded database)`` of each counted corpus run.
RUNS = {"daisy-seeded": ("daisy", True), "daisy-empty": ("daisy", False),
        **{name: (name, False) for name in ("evolutionary",) + BASELINES}}


@pytest.fixture(scope="module", params=list(RUNS))
def schedule_calls(request):
    scheduler, seeded = RUNS[request.param]
    with pytest.MonkeyPatch.context() as monkeypatch:
        yield request.param, _schedule_corpus(monkeypatch, scheduler, seeded)


def test_the_corpus_takes_the_path_it_is_meant_to(schedule_calls):
    run, (calls, details) = schedule_calls
    assert calls
    if run == "daisy-seeded":
        assert details["transfer"] > details["evolutionary"] > 0
    elif run in ("daisy-empty", "evolutionary"):
        assert details["transfer"] == 0 and details["evolutionary"] > 0
    elif run in ("polly", "tiramisu"):
        assert details["not"] > 0  # a nest reported unsupported


def test_container_facts_once_per_program_state(schedule_calls):
    """The call's program has its container facts derived once per state:
    only a library call put in a nest's place changes what it reads, and
    each other derivation is of the nest as a program of its own (an
    embedding's), once per embedded nest."""
    _run, (calls, _details) = schedule_calls
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


def test_what_a_loop_carries_once_per_nest_loop_and_loops_inside(
        schedule_calls):
    _run, (calls, _details) = schedule_calls
    scanned = 0
    for call in calls:
        keys = Counter(
            (iterator, tuple((id(statement), enclosing)
                             for statement, enclosing in statements))
            for iterator, statements in call["scans"])
        assert not [key for key, count in keys.items() if count > 1]
        scanned += len(keys)
    assert scanned


def test_band_loops_are_asked_by_position(schedule_calls):
    _run, (calls, _details) = schedule_calls
    assert sum(call["band_loops_asked"] for call in calls) == 0


def test_a_nest_is_viewed_by_its_pricer_alone(schedule_calls):
    """A view is made by a ``NestPricer`` (of the nest it chooses and
    builds a recipe on, a copy it prices whole, or a sibling it prices), by
    the scheduler's final ``price`` of a nest no pricer built, or by a view
    for a loop below its band.  No ``recipe_for`` hook and no
    ``schedule_nest`` views a nest itself, and ``build`` materialises the
    view it priced instead of viewing the nest again: clang, icc, numpy
    and numba, which choose one recipe per nest, make as many views as
    pricers, one per loop nest."""
    run, (calls, _details) = schedule_calls
    makers = Counter(maker for call in calls for maker in call["views"])
    assert makers["NestPricer.__init__"] > 0
    assert makers["NestPricer.build"] == 0, makers
    outside = {maker for maker in makers
               if not maker.startswith("NestPricer.")
               and maker not in ("Scheduler.price", "BandView.parallelism")}
    assert not outside, makers
    if run not in ("clang", "icc", "numpy", "numba"):
        return
    for call in calls:
        nests = sum(isinstance(node, Loop) for node in call["program"].body)
        assert len(call["views"]) == call["pricers"] == nests, call["views"]


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
            in dependence_spec.body_dependences(loop.iterator, children)
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
