"""Multi-process worker pool over one shared SQLite cache.

The a-priori normalization of the source paper makes scheduling requests
embarrassingly cacheable *and* independent: once programs are reduced to
canonical forms, any worker can serve any request as long as all workers
agree on one content-addressed cache.  :class:`WorkerPool` exploits exactly
that property:

* **one Session per worker process** — each worker of the pool builds its
  own :class:`~repro.api.Session` from a picklable :class:`WorkerConfig`,
  so scheduling runs on real CPU cores instead of GIL-sharing threads.
* **one shared cache file** — every worker session binds the same
  :class:`~repro.api.SQLiteCacheBackend` path (WAL mode, busy timeout,
  retried writes), so a schedule computed by one worker is a disk hit for
  every other worker and for later pool generations.
* **one tuning-database shard per worker** — the coordinator partitions a
  :class:`~repro.api.ShardedTuningDatabase` so worker ``i`` holds shard
  ``i`` (the layout a multi-machine deployment maps one shard per node).
* **scatter-gather tuning** — :meth:`WorkerPool.tune` scatters tune
  requests over the workers, gathers the database entries each worker
  produced, merges them into the coordinator's sharded database by
  embedding hash, and redistributes them so every worker sees the grown
  database.

The pool is the process-level analogue of ``Session.schedule_batch``: the
async :class:`~repro.serving.service.SchedulingService` plugs it in as its
batch executor (``serve --workers N``), keeping micro-batching and
coalescing semantics unchanged — batches are simply scattered over
processes instead of threads.
"""

from __future__ import annotations

import json
import multiprocessing
import queue as queue_module
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..api.registry import RegistryError
from ..api.session import Session
from ..api.types import ScheduleRequest, ScheduleResponse
from ..observability import merge_registry_dicts
from ..passes.registry import PipelineRegistryError
from ..scheduler.database import (DatabaseEntry, TuningDatabase,
                                  apply_feedback_record)
from ..scheduler.sharding import ShardedTuningDatabase, embedding_shard
from ..scheduler.evolutionary import SearchConfig
from ..scheduler.tiramisu import MctsConfig

#: Exception types reconstructed by name on the coordinator, so the serving
#: layer's error mapping (ValueError -> HTTP 400, ...) survives the process
#: boundary.  Anything else resurfaces as :class:`WorkerError`.
_PORTABLE_ERRORS = {
    "ValueError": ValueError,
    "TypeError": TypeError,
    "KeyError": KeyError,
    "IndexError": IndexError,
    "RuntimeError": RuntimeError,
    # KeyError subclasses of the registries: a request naming an unknown
    # workload/scheduler/pipeline must stay a client error (HTTP 400) after
    # crossing the process boundary.
    "RegistryError": RegistryError,
    "PipelineRegistryError": PipelineRegistryError,
}


class WorkerError(RuntimeError):
    """An exception raised inside a worker process that has no portable
    builtin type; ``error_type`` names the original class."""

    def __init__(self, error_type: str, message: str):
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type


@dataclass
class WorkerConfig:
    """Picklable recipe for the :class:`~repro.api.Session` of one worker.

    Mirrors the Session keyword surface a serving deployment uses;
    ``cache_path`` is the *shared* SQLite cache file every worker binds
    (``None`` gives each worker an isolated in-memory cache, which still
    parallelizes but loses cross-worker hits).
    """

    scheduler: str = "daisy"
    threads: int = 4
    size: str = "large"
    pipeline: Optional[str] = None
    cache_path: Optional[str] = None
    search: Optional[SearchConfig] = None
    mcts: Optional[MctsConfig] = None

    def build_session(self, shard_entries: Sequence[Dict[str, Any]]) -> Session:
        """Build this worker's session around its database shard."""
        database = TuningDatabase(
            [DatabaseEntry.from_dict(item) for item in shard_entries])
        return Session(threads=self.threads, scheduler=self.scheduler,
                       size=self.size, pipeline=self.pipeline,
                       cache_path=self.cache_path, database=database,
                       search=self.search, mcts=self.mcts)


# -- worker-process half ----------------------------------------------------------
#
# ProcessPoolExecutor workers run these module-level functions; the session
# built by ``_init_worker`` lives in the globals of the *child* process.

_WORKER_SESSION: Optional[Session] = None
_WORKER_INDEX: int = -1
_WORKER_COUNT: int = 0
_WORKER_BARRIER = None
_WORKER_SEEN: set = set()


def _entry_key(entry_dict: Dict[str, Any]) -> str:
    """Stable identity of one database entry (dedupe for redistribution).

    Feedback fields are stripped first: online measurements mutate an
    entry's ``measured_runtime``/``measurements`` in place, and an entry
    must stay *one* entry across redistribution rounds no matter how many
    timings it absorbed in between (mirrors ``DatabaseEntry.identity``).
    """
    stripped = {key: value for key, value in entry_dict.items()
                if key not in ("measured_runtime", "measurements")}
    return json.dumps(stripped, sort_keys=True)


def _init_worker(config: WorkerConfig,
                 shard_payloads: List[List[Dict[str, Any]]],
                 index_queue, barrier) -> None:
    """Initializer of every pool process: claim an index, build the session."""
    global _WORKER_SESSION, _WORKER_INDEX, _WORKER_COUNT, _WORKER_BARRIER
    global _WORKER_SEEN
    try:
        index = index_queue.get(timeout=30)
    except queue_module.Empty:
        raise RuntimeError("worker pool initializer found no free worker index")
    _WORKER_INDEX = index
    _WORKER_COUNT = len(shard_payloads)
    _WORKER_BARRIER = barrier
    shard = shard_payloads[index]
    _WORKER_SEEN = {_entry_key(item) for item in shard}
    _WORKER_SESSION = config.build_session(shard)


def _worker_ping() -> int:
    """Barrier rendezvous used by ``start()``/``report()`` to reach every
    worker exactly once; returns the worker index."""
    try:
        _WORKER_BARRIER.wait(timeout=60)
    except threading.BrokenBarrierError:
        pass  # degraded: the coordinator tolerates duplicate/missing workers
    return _WORKER_INDEX


def _error_payload(error: BaseException) -> Dict[str, Any]:
    return {"error": {"type": type(error).__name__, "message": str(error)}}


def _worker_schedule(request_dict: Dict[str, Any]) -> Dict[str, Any]:
    """Run one schedule request on this worker's session.

    The response travels as one pre-encoded JSON string: JSON encoding
    happens here, on a parallel worker, and the coordinator (and the HTTP
    layer, which replies with exactly these bytes) never re-parses or
    re-serializes the response on its serial hot path.
    """
    try:
        request = ScheduleRequest.from_dict(request_dict)
        response = _WORKER_SESSION.schedule(request)
        payload = {"response_json": response.to_json()}
    except Exception as error:  # noqa: BLE001 - marshalled to the coordinator
        payload = _error_payload(error)
    # Ship this worker's finished trace spans back in-band so they rejoin
    # the coordinator's trace (the request carried the parent context).
    trace = request_dict.get("trace")
    if trace and _WORKER_SESSION is not None:
        spans = _WORKER_SESSION.tracer.export_fragment(trace["trace_id"])
        if spans:
            payload["spans"] = spans
    return payload


def _worker_schedule_many(request_dicts: List[Dict[str, Any]]
                          ) -> List[Dict[str, Any]]:
    """Run one scatter chunk; one task per worker amortizes the IPC cost
    that per-request tasks would pay."""
    return [_worker_schedule(item) for item in request_dicts]


def _worker_tune(request_dict: Dict[str, Any]) -> Dict[str, Any]:
    """Run one tune request; returns the response plus the database entries
    the tune added, for the coordinator's scatter-gather merge."""
    session = _WORKER_SESSION
    before = len(session.database)
    try:
        request = ScheduleRequest.from_dict(request_dict)
        response = session.schedule(request)
    except Exception as error:  # noqa: BLE001 - marshalled to the coordinator
        return _error_payload(error)
    new_entries = [entry.to_dict()
                   for entry in session.database.entries[before:]]
    for item in new_entries:
        _WORKER_SEEN.add(_entry_key(item))
    return {"response_json": response.to_json(), "entries": new_entries}


def _worker_absorb_entries(entry_dicts: List[Dict[str, Any]]
                           ) -> Tuple[int, int]:
    """Barrier-synchronized redistribution: add the entries hashing to this
    worker's shard that it has not seen yet; returns (index, added)."""
    try:
        _WORKER_BARRIER.wait(timeout=60)
    except threading.BrokenBarrierError:
        pass
    added = 0
    for item in entry_dicts:
        entry = DatabaseEntry.from_dict(item)
        if embedding_shard(entry.embedding, _WORKER_COUNT) != _WORKER_INDEX:
            continue
        key = _entry_key(item)
        if key in _WORKER_SEEN:
            continue
        _WORKER_SEEN.add(key)
        _WORKER_SESSION.database.add_entry(entry)
        added += 1
    return _WORKER_INDEX, added


def _worker_apply_feedback(records: List[Dict[str, Any]]
                           ) -> Tuple[int, Dict[str, int]]:
    """Barrier-synchronized online-feedback round (one task per worker).

    The coordinator already applied every record to its own sharded
    database and marked which ones created a measurement-born entry
    (``record["added"]``); each worker mirrors that decision on its shard:
    existing-entry updates apply wherever the matching entry lives
    (``add_missing=False`` everywhere else is a silent no-op), new entries
    are created only by the worker owning the embedding's shard — the same
    routing redistribution uses.
    """
    try:
        _WORKER_BARRIER.wait(timeout=60)
    except threading.BrokenBarrierError:
        pass
    session = _WORKER_SESSION
    counts = {"applied": 0, "added": 0, "skipped": 0}
    for record in records:
        vector = record.get("embedding")
        if vector is None:
            continue  # the coordinator counted the skip once, pool-wide
        if record.get("added"):
            if embedding_shard(vector, _WORKER_COUNT) != _WORKER_INDEX:
                continue
            counts[apply_feedback_record(record, session.database,
                                         add_missing=True)] += 1
        else:
            outcome = apply_feedback_record(record, session.database,
                                            add_missing=False)
            if outcome != "skipped":
                # Exactly one worker holds the matching entry; the "not my
                # shard" no-ops of the others are routing, not skips.
                counts[outcome] += 1
    session.note_feedback(counts)
    return _WORKER_INDEX, counts


def _worker_report() -> Tuple[int, Dict[str, Any]]:
    """Barrier-synchronized session report of this worker."""
    try:
        _WORKER_BARRIER.wait(timeout=60)
    except threading.BrokenBarrierError:
        pass
    return _WORKER_INDEX, _WORKER_SESSION.report().to_dict()


def _worker_metrics() -> Tuple[int, Dict[str, Any]]:
    """Barrier-synchronized metrics-registry snapshot of this worker."""
    try:
        _WORKER_BARRIER.wait(timeout=60)
    except threading.BrokenBarrierError:
        pass
    return _WORKER_INDEX, _WORKER_SESSION.metrics.to_dict()


# -- coordinator half --------------------------------------------------------------

#: Report fields merged by union instead of summation.
_UNION_FIELDS = {"schedulers"}
#: Report fields merged by taking the first value (homogeneous per pool).
_FIRST_FIELDS = {"cache_backend"}


def merge_worker_reports(reports: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate per-worker ``SessionReport`` dicts into one pool-wide dict.

    Counters sum, ``schedulers`` unions, ``normalization_passes`` sums per
    pass name, and ``database_shards`` concatenates one entry count per
    worker (each worker's database is one shard).
    """
    merged: Dict[str, Any] = {}
    shards: List[int] = []
    for report in reports:
        shards.append(int(report.get("database_entries", 0)))
        for key, value in report.items():
            if key == "database_shards":
                continue
            if key in _FIRST_FIELDS:
                merged.setdefault(key, value)
            elif key in _UNION_FIELDS:
                merged[key] = sorted(set(merged.get(key, [])) | set(value))
            elif key == "normalization_passes":
                target = merged.setdefault(key, {})
                for name, entry in value.items():
                    bucket = target.setdefault(name, {})
                    for stat, amount in entry.items():
                        if isinstance(amount, dict):
                            # Nested pass counters (hoisted, cse_hits,
                            # flops_saved, ...) sum key-wise.
                            nested = bucket.setdefault(stat, {})
                            for counter, delta in amount.items():
                                nested[counter] = nested.get(counter, 0) + delta
                        else:
                            bucket[stat] = bucket.get(stat, 0) + amount
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                merged[key] = merged.get(key, 0) + value
            else:
                merged.setdefault(key, value)
    merged["database_shards"] = shards
    return merged


@dataclass
class PoolStats:
    """What the pool did since it started (coordinator-side counters)."""

    scheduled: int = 0
    tuned: int = 0
    errors: int = 0
    gathered_entries: int = 0
    redistributed_entries: int = 0
    feedback_applied: int = 0
    feedback_added: int = 0
    feedback_skipped: int = 0

    def to_dict(self) -> Dict[str, int]:
        return asdict(self)


class WorkerPool:
    """``num_workers`` processes, each a Session over the shared cache.

    The pool is a drop-in batch executor for the async service: its
    :meth:`schedule_batch` has the contract of
    ``Session.schedule_batch(..., return_exceptions=True)`` — responses in
    input order, per-item exceptions in-band — so
    :class:`~repro.serving.service.SchedulingService` can scatter its
    micro-batches over processes without changing queueing, coalescing, or
    error semantics.

    ``database`` seeds the workers: a :class:`ShardedTuningDatabase` is
    re-hashed to one shard per worker, a plain :class:`TuningDatabase` is
    partitioned the same way.  The coordinator keeps its own sharded copy
    (``pool.database``) that :meth:`tune` grows by gathering worker results.

    Use as a context manager, or call :meth:`close` — worker processes are
    real OS resources.
    """

    def __init__(self, num_workers: int,
                 config: Optional[WorkerConfig] = None,
                 database: Optional[Union[ShardedTuningDatabase,
                                          TuningDatabase]] = None,
                 mp_context: str = "spawn"):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = num_workers
        self.config = config or WorkerConfig()
        self.stats = PoolStats()
        #: Coordinator-side tracer that worker span fragments rejoin; the
        #: serving layer points this at the coordinator session's tracer.
        self.tracer = None
        if database is None:
            self.database = ShardedTuningDatabase(num_workers)
        elif isinstance(database, ShardedTuningDatabase):
            self.database = database.rebalance(num_workers)
        else:
            self.database = ShardedTuningDatabase.from_database(
                database, num_workers)
        shard_payloads = [
            [entry.to_dict() for entry in self.database.shard(index).entries]
            for index in range(num_workers)]
        context = multiprocessing.get_context(mp_context)
        self._index_queue = context.Queue()
        for index in range(num_workers):
            self._index_queue.put(index)
        self._barrier = context.Barrier(num_workers)
        # Rendezvous rounds (start / report / redistribute) must not
        # interleave: two concurrent rounds against the one shared barrier
        # would break its one-task-per-worker guarantee.
        self._rendezvous_lock = threading.Lock()
        self._executor: Optional[ProcessPoolExecutor] = ProcessPoolExecutor(
            max_workers=num_workers, mp_context=context,
            initializer=_init_worker,
            initargs=(self.config, shard_payloads,
                      self._index_queue, self._barrier))

    # -- lifecycle ---------------------------------------------------------------

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def start(self) -> None:
        """Force-spawn every worker and block until all sessions are built.

        Optional — the first batch spawns workers on demand — but a server
        (and any benchmark) wants the spawn cost paid up front, and an
        initializer failure (bad cache path, unknown scheduler) surfaces
        here instead of on the first request.
        """
        self._reach_all_workers(_worker_ping)

    def close(self) -> None:
        """Shut the worker processes down.  Idempotent."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
            self._index_queue.close()

    def _require_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            raise RuntimeError("worker pool is closed")
        return self._executor

    def _reach_all_workers(self, task, *args) -> Dict[int, Any]:
        """Submit one barrier-synchronized task per worker and gather their
        results keyed by worker index.

        The barrier makes each live worker take exactly one task; if a
        worker is busy past the barrier timeout the barrier breaks and the
        gather degrades gracefully (some indices may repeat or be absent —
        callers treat the result as best-effort).  Rounds are serialized by
        a coordinator-side lock so concurrent report()/tune() calls cannot
        break each other's rendezvous.
        """
        executor = self._require_executor()
        with self._rendezvous_lock:
            futures = [executor.submit(task, *args)
                       for _ in range(self.num_workers)]
            gathered: Dict[int, Any] = {}
            for future in futures:
                outcome = future.result()
                if isinstance(outcome, tuple):
                    index, value = outcome
                else:
                    index, value = outcome, outcome
                gathered[index] = value
            self._barrier.reset()
        return gathered

    # -- scheduling --------------------------------------------------------------

    def _decode(self, payload: Dict[str, Any]
                ) -> Union[ScheduleResponse, Exception]:
        spans = payload.get("spans")
        if spans and self.tracer is not None:
            # Rejoin worker-side spans before the caller's future resolves,
            # so the root span always closes over a complete trace.
            self.tracer.absorb(spans)
        error = payload.get("error")
        if error is not None:
            portable = _PORTABLE_ERRORS.get(error["type"])
            if portable is not None:
                return portable(error["message"])
            return WorkerError(error["type"], error["message"])
        # Text-backed: the coordinator mostly shuttles worker responses
        # onward (the HTTP layer replies with exactly these bytes), so it
        # parses nothing unless someone reads a field.
        return ScheduleResponse.from_json(payload["response_json"])

    def schedule_batch(self, requests: Sequence[ScheduleRequest]
                       ) -> List[Union[ScheduleResponse, Exception]]:
        """Scatter the batch over the workers; gather responses in order.

        Requests are split round-robin into one chunk per worker (a chunk
        is one executor task, amortizing IPC over the chunk).  Matches
        ``Session.schedule_batch(..., return_exceptions=True)``: per-item
        *exceptions* (bad requests, scheduler errors) come back in-band so
        one bad request cannot fail its batchmates.  A crashed worker
        *process* (OOM kill, segfault) is different: ``concurrent.futures``
        marks the whole pool broken, every chunk of the batch returns
        ``BrokenProcessPool`` in-band, and the pool must be recreated —
        there is no automatic restart.
        """
        executor = self._require_executor()
        if not requests:
            return []
        indexed = list(enumerate(requests))
        chunks = [chunk for chunk
                  in (indexed[offset::self.num_workers]
                      for offset in range(self.num_workers)) if chunk]
        submitted = [
            (chunk, executor.submit(
                _worker_schedule_many,
                [request.to_dict() for _, request in chunk]))
            for chunk in chunks]
        results: List[Union[ScheduleResponse, Exception]] = \
            [None] * len(requests)  # type: ignore[list-item]
        for chunk, future in submitted:
            try:
                payloads = future.result()
                decoded = [self._decode(payload) for payload in payloads]
            except Exception as error:  # noqa: BLE001 - broken pool etc.
                decoded = [error] * len(chunk)
            for (index, _), outcome in zip(chunk, decoded):
                if isinstance(outcome, Exception):
                    self.stats.errors += 1
                else:
                    self.stats.scheduled += 1
                results[index] = outcome
        return results

    def schedule(self, request: ScheduleRequest) -> ScheduleResponse:
        """Schedule one request on some worker; raises on failure."""
        result = self.schedule_batch([request])[0]
        if isinstance(result, Exception):
            raise result
        return result

    # -- tuning: scatter, gather, merge, redistribute ----------------------------

    def tune(self, requests: Sequence[ScheduleRequest],
             redistribute: bool = True
             ) -> List[Union[ScheduleResponse, Exception]]:
        """Scatter tune requests over the workers and gather the results.

        Each worker tunes into its local database; the entries it produced
        are gathered and merged into the coordinator's sharded database
        (``pool.database``) by embedding hash.  With ``redistribute`` (the
        default) the merged entries are then pushed back so the worker
        owning each entry's shard absorbs it — after which every future
        request, on any worker, schedules against the grown database.
        """
        executor = self._require_executor()
        prepared = []
        for request in requests:
            if not request.tune:
                raise ValueError(
                    "WorkerPool.tune takes tune requests "
                    "(ScheduleRequest(..., tune=True))")
            prepared.append(request.to_dict())
        futures = [executor.submit(_worker_tune, item) for item in prepared]
        results: List[Union[ScheduleResponse, Exception]] = []
        gathered: List[Dict[str, Any]] = []
        for future in futures:
            try:
                payload = future.result()
            except Exception as error:  # noqa: BLE001 - broken pool etc.
                self.stats.errors += 1
                results.append(error)
                continue
            decoded = self._decode(payload)
            if isinstance(decoded, Exception):
                self.stats.errors += 1
            else:
                self.stats.tuned += 1
                gathered.extend(payload.get("entries", ()))
            results.append(decoded)
        if gathered:
            self.stats.gathered_entries += self.database.add_entries(
                DatabaseEntry.from_dict(item) for item in gathered)
            if redistribute:
                absorbed = self._reach_all_workers(
                    _worker_absorb_entries, gathered)
                self.stats.redistributed_entries += sum(
                    value for value in absorbed.values()
                    if isinstance(value, int))
        return results

    # -- online feedback ---------------------------------------------------------

    def record_measurement(self, records: Sequence[Dict[str, Any]]
                           ) -> Dict[str, int]:
        """Apply executed-schedule feedback records pool-wide.

        ``records`` come from :meth:`repro.api.Session.measurement_feedback`
        (plain JSON values, so they cross the process boundary unchanged).
        The coordinator's sharded database absorbs them first — deciding,
        under its shard locks, which records update an existing entry and
        which create a measurement-born one — then a barrier round pushes
        the records (decisions attached) to every worker so each mirrors
        the effect on its own shard.  Future batches, on any worker, then
        schedule against the re-ranked database.  Returns the
        coordinator-side outcome counts ``{"applied", "added", "skipped"}``.

        Safe to call concurrently with :meth:`tune`: rendezvous rounds are
        serialized by the coordinator lock, and the coordinator database's
        per-shard locks order the merge against feedback application.
        """
        prepared: List[Dict[str, Any]] = []
        counts = {"applied": 0, "added": 0, "skipped": 0}
        for record in records:
            record = dict(record)
            outcome = apply_feedback_record(record, self.database,
                                            add_missing=True)
            counts[outcome] += 1
            record["added"] = outcome == "added"
            prepared.append(record)
        self.stats.feedback_applied += counts["applied"]
        self.stats.feedback_added += counts["added"]
        self.stats.feedback_skipped += counts["skipped"]
        if prepared:
            self._reach_all_workers(_worker_apply_feedback, prepared)
        return counts

    # -- introspection -----------------------------------------------------------

    def report(self) -> Dict[str, Any]:
        """Scatter-gather of every worker's ``Session.report()``.

        Returns ``{"num_workers", "reports_collected", "merged",
        "per_worker", "pool"}`` where ``merged`` aggregates the per-worker
        counters (see :func:`merge_worker_reports`) and ``pool`` carries the
        coordinator-side :class:`PoolStats`.
        """
        per_worker = {index: report for index, report
                      in self._reach_all_workers(_worker_report).items()}
        return {
            "num_workers": self.num_workers,
            "reports_collected": len(per_worker),
            "merged": merge_worker_reports(per_worker.values()),
            "per_worker": {str(index): report
                           for index, report in sorted(per_worker.items())},
            "pool": self.stats.to_dict(),
        }

    def metrics(self) -> Dict[str, Any]:
        """Scatter-gather of every worker's metrics-registry snapshot.

        Returns ``{"num_workers", "registries_collected", "merged",
        "per_worker"}``; ``merged`` sums the per-worker snapshots with
        :func:`~repro.observability.merge_registry_dicts` (counters and
        histogram buckets add, so the merged histogram count equals the sum
        of per-worker counts).  Like :meth:`report`, this rendezvouses with
        every worker process and may block while busy workers finish.
        """
        per_worker = {index: snapshot for index, snapshot
                      in self._reach_all_workers(_worker_metrics).items()}
        return {
            "num_workers": self.num_workers,
            "registries_collected": len(per_worker),
            "merged": merge_registry_dicts(
                snapshot for _, snapshot in sorted(per_worker.items())),
            "per_worker": {str(index): snapshot
                           for index, snapshot in sorted(per_worker.items())},
        }
