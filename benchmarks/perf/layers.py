"""Per-layer measurements, all taken from outside through public functions.

Two instruments:

* :func:`replay` — for every distinct input of a workload, the real cold
  ``Session.schedule`` call under one root span and, beside it, the same
  request replayed as *staged* public calls (resolve → hash → normalize →
  per nest: idiom match / embed / database query / search / apply → cost
  model → copy), one span per call.  The staged spans say where a cold
  request's time goes; real − Σ staged is what the session itself adds.
* :func:`probes` — timing loops around single public functions whose cost a
  request pays but that the replay cannot isolate (copy vs snapshot,
  memoized hashing, fast-lane assembly, service and HTTP hops, the
  product's own tracer, the SQLite backend).

Layer = module name.  The staging mirrors ``DaisyScheduler._schedule_nest``;
``replay`` checks that the staged recipes and runtime equal the real
response's, so a scheduler change that the staging misses is reported, not
silently mis-attributed.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from functools import partial
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.analysis.dependence import legal_permutations
from repro.api import (CostModel, DEFAULT_MACHINE, Loop, NormalizationCache,
                       NormalizationOptions, ScheduleResponse,
                       SQLiteCacheBackend, Session, program_content_hash)
from repro.api.cache import SCHEDULE_NAMESPACE, ScheduleEntry
from repro.api.hashing import request_fingerprint
from repro.normalization.pipeline import normalize
from repro.observability import Tracer
from repro.scheduler.base import retarget_recipe
from repro.scheduler.daisy import DEFAULT_MAX_DISTANCE
from repro.scheduler.embedding import embed_nest
from repro.scheduler.evolutionary import EvolutionarySearch
from repro.serving import ServingClient, ServingServer
from repro.transforms.idiom import ReplaceWithLibraryCall, match_blas3
from repro.transforms.recipe import Recipe, apply_recipe

from perf.trace import Recorder
from perf.workloads import SEARCH, THREADS, Input, Workload, make_session

PASS_NAMES = ("loop-normal-form", "scalar-expansion", "maximal-fission",
              "stride-minimization", "canonicalize-iterators", "validate")


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


# -- staged replay --------------------------------------------------------------------


def _staged(inp: Input, database: Any, rec: Recorder,
            search: EvolutionarySearch, cost_model: CostModel,
            totals: Dict[str, float]) -> Tuple[List[Any], float]:
    """One request as staged public calls; returns the transformations
    applied per nest and the modeled runtime."""
    resolver = make_session()
    parameters = inp.parameters
    recipes: List[Any] = []
    try:
        with rec.span("replay", op_id=inp.label):
            if inp.named:
                with rec.span("workloads.resolve"):
                    program = resolver.load(inp.label)
            else:
                program = inp.build()
            with rec.span("api.hash"):
                program_content_hash(program)
            with rec.span("normalization.normalize"):
                normalized, report = normalize(program, NormalizationOptions())
            with rec.span("api.hash"):
                program_content_hash(normalized)
            # The session-managed scheduler copies its (already normalized)
            # input before rewriting it.
            with rec.span("ir.copy"):
                work = normalized.copy()
            for index in range(len(work.body)):
                nest = work.body[index]
                if not isinstance(nest, Loop):
                    continue
                label = f"{program.name}#{index}"
                with rec.span("transforms.match_blas3"):
                    idiom = match_blas3(nest)
                with rec.span("scheduler.embed"):
                    embedding = embed_nest(nest, work.arrays, parameters,
                                           label=label)
                if idiom is not None:
                    recipe = Recipe(f"{label}:blas",
                                    [ReplaceWithLibraryCall(index)])
                    with rec.span("transforms.apply_recipe"):
                        apply_recipe(work, recipe)
                    recipes.append(recipe.to_dict()["transformations"])
                    continue
                with rec.span("scheduler.db_query"):
                    entry = database.best_match(embedding,
                                                DEFAULT_MAX_DISTANCE)
                if entry is not None:
                    recipe = retarget_recipe(entry.recipe, index)
                    _candidate_probe(work, nest, recipe, parameters,
                                     cost_model, rec)
                    with rec.span("transforms.apply_recipe"):
                        application = apply_recipe(work, recipe)
                    if application.applied:
                        recipes.append(recipe.to_dict()["transformations"])
                        continue
                with rec.span("scheduler.db_query"):
                    seeds = [retarget_recipe(neighbor.recipe, index)
                             for _, neighbor in database.query(embedding,
                                                               k=10)]
                with rec.span("scheduler.search"):
                    outcome = search.search(work, index, parameters, seeds)
                totals["candidates"] += outcome.evaluated
                _candidate_probe(work, nest, outcome.recipe, parameters,
                                 cost_model, rec)
                with rec.span("transforms.apply_recipe"):
                    apply_recipe(work, outcome.recipe)
                recipes.append(outcome.recipe.to_dict()["transformations"])
            with rec.span("perf.cost_model"):
                runtime = cost_model.estimate_seconds(work, parameters)
            # Storing the schedule in the cache takes a private copy.
            with rec.span("ir.copy"):
                work.copy()
    finally:
        resolver.close()
    totals["nodes"] += report.passes[-1].ir_size_after
    for name, seconds in report.pass_timings().items():
        totals["pass:" + name] = totals.get("pass:" + name, 0.0) + seconds
    return recipes, runtime


def _candidate_probe(work: Any, nest: Loop, recipe: Recipe,
                     parameters: Dict[str, int], cost_model: CostModel,
                     rec: Recorder) -> None:
    """The three terms of one candidate evaluation, on a copy; kept under a
    ``probe`` span so they do not count towards the staged total."""
    with rec.span("probe"):
        with rec.span("analysis.legal_permutations"):
            legal_permutations(nest)
        with rec.span("ir.copy"):
            trial = work.copy()
        with rec.span("transforms.apply_recipe"):
            apply_recipe(trial, recipe)
        with rec.span("perf.cost_model"):
            cost_model.estimate_seconds(trial, parameters)


def replay(workload: Workload, rec: Recorder) -> Dict[str, Any]:
    """Real cold call beside its staged replay, for every distinct input."""
    cost_model = CostModel(DEFAULT_MACHINE, THREADS)
    search = EvolutionarySearch(cost_model, SEARCH)
    totals: Dict[str, float] = {"candidates": 0, "nodes": 0}
    mismatches = 0
    inputs = (workload.inputs if workload.replay_inputs is None
              else workload.replay_inputs)
    for inp in inputs:
        session = make_session(database=workload.database)
        request = inp.request()
        try:
            with rec.span("real", op_id=inp.label):
                with rec.span("api.session.schedule"):
                    response = session.schedule(request)
                with rec.span("api.encode"):
                    payload = json.dumps(response.to_dict())
                decoded = json.loads(payload)
                with rec.span("api.decode"):
                    ScheduleResponse.from_dict(decoded)
        finally:
            session.close()
        staged = _staged(inp, workload.database, rec, search, cost_model,
                         totals)
        # Recipe names carry provenance labels; compare what is applied.
        real_recipes = [info.recipe.to_dict()["transformations"]
                        if info.recipe is not None else None
                        for info in response.result.nests]
        if staged != (real_recipes, response.runtime_s):
            mismatches += 1

    # Staged total of a replay = its direct children, probes excluded.
    staged_total: Dict[int, float] = {
        index: 0.0 for index, span in enumerate(rec.spans)
        if span["name"] == "replay"}
    for span in rec.spans:
        if span["parent"] in staged_total and span["name"] != "probe":
            staged_total[span["parent"]] += span["end"] - span["start"]
    staged_s = list(staged_total.values())
    real_s = rec.durations("api.session.schedule", under="real")
    search_s = rec.durations("scheduler.search")
    overhead = [real - staged for real, staged in zip(real_s, staged_s)]
    metrics = {
        "workloads.resolve_ms": 1e3 * _mean(rec.durations("workloads.resolve")),
        "api.hash_us": 1e6 * _mean(rec.durations("api.hash")),
        "normalization.total_ms":
            1e3 * _mean(rec.durations("normalization.normalize")),
        "ir.nodes_after_normalize": totals["nodes"],
        "scheduler.embed_ms": 1e3 * _mean(rec.durations("scheduler.embed")),
        "scheduler.db_query_us":
            1e6 * _mean(rec.durations("scheduler.db_query")),
        "scheduler.search_ms_per_nest": 1e3 * _mean(search_s),
        "scheduler.candidates_per_s": (totals["candidates"] / sum(search_s)
                                       if search_s else 0.0),
        "analysis.legal_permutations_ms": 1e3 * _mean(
            rec.durations("analysis.legal_permutations", under="probe")),
        "transforms.apply_recipe_ms": 1e3 * _mean(
            rec.durations("transforms.apply_recipe", under="probe")),
        "perf.cost_model_ms": 1e3 * _mean(
            rec.durations("perf.cost_model", under="probe")),
        "api.encode_ms": 1e3 * _mean(rec.durations("api.encode",
                                                   under="real")),
        "api.decode_ms": 1e3 * _mean(rec.durations("api.decode",
                                                   under="real")),
        "api.session_overhead_ms": 1e3 * _mean(overhead),
        "trace.unattributed_share": (
            sum(max(0.0, value) for value in overhead) / sum(real_s)),
    }
    for name in PASS_NAMES:
        metrics[f"normalization.pass_ms.{name}"] = \
            1e3 * totals.get("pass:" + name, 0.0) / len(inputs)
    return {"metrics": metrics, "mismatches": mismatches}


# -- probes ---------------------------------------------------------------------------


def _per_call(*fns: Callable[[], Any], batch_s: float = 0.02,
              batches: int = 5, scale: float = 1.0) -> List[float]:
    """Median seconds per call of each of ``fns`` over ``batches`` batches
    of about ``batch_s * scale`` seconds; the batches of the functions
    alternate, so a slow phase of the machine hits all of them alike and
    their differences stay meaningful."""
    batch_s *= scale
    for fn in fns:
        fn()
    calls = 1
    while True:
        started = time.perf_counter()
        for _ in range(calls):
            fns[0]()
        elapsed = time.perf_counter() - started
        if elapsed >= batch_s:
            break
        calls = max(calls * 2, int(calls * batch_s / max(elapsed, 1e-9)) + 1)
    samples: List[List[float]] = [[] for _ in fns]
    for _ in range(batches):
        for fn, timings in zip(fns, samples):
            started = time.perf_counter()
            for _ in range(calls):
                fn()
            timings.append((time.perf_counter() - started) / calls)
    return [statistics.median(timings) for timings in samples]


class _Fixture:
    """A small warmed service: a few named inputs scheduled twice through a
    loopback server, so every request is a fast-lane hit."""

    def __init__(self, inputs: Sequence[Input], tracer: Any = None):
        self.session = make_session(tracer=tracer)
        self.server = ServingServer(self.session)
        self.server.start()
        self.runner = self.server.runner
        self.requests = [inp.request() for inp in inputs]
        self.responses = [self.runner.schedule(request)
                          for request in self.requests]
        for request in self.requests:
            self.runner.schedule(request)
        self.client = ServingClient(self.server.address)

    def close(self) -> None:
        self.server.stop()
        self.session.close()


def _sqlite_probe(fixture: _Fixture, out_dir: str) -> Dict[str, float]:
    """Schedule-entry payloads through a temp SQLite file: puts, then gets
    from a second connection (so they come from disk, not the hot layer)."""
    path = os.path.join(out_dir, f"probe-{os.getpid()}.sqlite")
    entries = [ScheduleEntry(response.result, response.runtime_s)
               for response in fixture.responses]
    writer = NormalizationCache(backend=SQLiteCacheBackend(path))
    reader = None
    try:
        puts, gets = [], []
        keys = [f"probe-{number}" for number in range(8 * len(entries))]
        for number, key in enumerate(keys):
            started = time.perf_counter()
            writer.backend.put(SCHEDULE_NAMESPACE, key,
                               entries[number % len(entries)])
            puts.append(time.perf_counter() - started)
        reader = NormalizationCache(backend=SQLiteCacheBackend(path))
        for key in keys:
            started = time.perf_counter()
            found = reader.backend.get(SCHEDULE_NAMESPACE, key)
            gets.append(time.perf_counter() - started)
            if found is None:
                raise RuntimeError(f"sqlite probe lost entry {key}")
    finally:
        writer.close()
        if reader is not None:
            reader.close()
        for suffix in ("", "-wal", "-shm"):
            if os.path.exists(path + suffix):
                os.remove(path + suffix)
    return {"api.backends.sqlite_put_us": 1e6 * statistics.median(puts),
            "api.backends.sqlite_get_us": 1e6 * statistics.median(gets)}


def probes(workload: Workload, out_dir: str,
           quick: bool = False) -> Dict[str, float]:
    """Timing loops over the workload's own input programs (means per
    program) and over a small warmed service built from its first inputs.
    ``quick`` (smoke runs) shortens every loop tenfold."""
    per_call = partial(_per_call, scale=0.1 if quick else 1.0)
    inputs = workload.inputs
    programs = [inp.build() for inp in inputs]
    frozen = [inp.build().freeze() for inp in inputs]
    requests = [inp.request() for inp in inputs]
    # The warm-up call of per_call has hashed every program once already.
    copy_s, snapshot_s, hash_s, fingerprint_s = per_call(
        lambda: [program.copy() for program in programs],
        lambda: [program.snapshot() for program in frozen],
        lambda: [program_content_hash(program) for program in programs],
        lambda: [request_fingerprint(request) for request in requests])
    metrics = {
        "ir.copy_us": 1e6 * copy_s / len(inputs),
        "ir.snapshot_us": 1e6 * snapshot_s / len(inputs),
        "api.hash_memo_us": 1e6 * hash_s / len(inputs),
        "api.request_fingerprint_us": 1e6 * fingerprint_s / len(inputs),
    }

    named = [inp for inp in inputs if inp.named][:2 if quick else 6]
    traced = _Fixture(named)
    untraced = _Fixture(named, tracer=Tracer(enabled=False))
    try:
        def through(fixture: _Fixture, call: Callable[[Any], Any]
                    ) -> Callable[[], Any]:
            return lambda: [call(request) for request in fixture.requests]

        session, runner, client = traced.session, traced.runner, traced.client
        service_s, lookup_s, off_s = per_call(
            through(traced, runner.schedule),
            through(traced, lambda r: session.lookup_response(r).to_json()),
            through(untraced, untraced.runner.schedule))
        http_s, timed_s = per_call(
            through(traced, lambda r: client.request(
                "POST", "/v1/schedule", r.to_dict())),
            through(traced, runner.schedule_timed), batch_s=0.1)
        metrics.update({
            "api.fast_encode_us": 1e6 * lookup_s / len(named),
            "serving.service_overhead_us":
                1e6 * (service_s - lookup_s) / len(named),
            "serving.http_overhead_ms": 1e3 * (http_s - timed_s) / len(named),
            # (off − on) ÷ off in rates = 1 − t_off ÷ t_on in times.
            "observability.tracer_overhead_share": 1.0 - off_s / service_s,
        })
        metrics.update(_sqlite_probe(traced, out_dir))
    finally:
        traced.close()
        untraced.close()
    return metrics
