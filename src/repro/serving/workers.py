"""Multi-process worker pool over one shared SQLite cache.

The a-priori normalization of the source paper makes scheduling requests
embarrassingly cacheable *and* independent: once programs are reduced to
canonical forms, any worker can serve any request as long as all workers
agree on one content-addressed cache.  :class:`WorkerPool` exploits exactly
that property:

* **one Session per worker process** — each worker of the pool builds its
  own :class:`~repro.api.Session` from a picklable :class:`WorkerConfig`,
  so scheduling runs on real CPU cores instead of GIL-sharing threads.
* **one whole tuning database per worker** — every worker holds all of the
  coordinator's :class:`~repro.api.TuningDatabase` entries, in the
  coordinator's order, so a daisy request transfers from the same nearest
  neighbours on any worker as in one :class:`~repro.api.Session`.
* **one mutation order** — a worker's tune hands its new entries back and
  leaves its own database as it found it; the coordinator appends what it
  gathered in input order and broadcasts it under one lock.  Every worker
  therefore reads the coordinator's ``database.version``.
* **one shared cache file** — every worker session binds the same
  :class:`~repro.api.SQLiteCacheBackend` path (WAL mode, busy timeout,
  retried writes).  Schedule keys carry the shared database version, so a
  schedule computed by one worker is a disk hit for every other worker and
  for later pool generations over the same database.

The pool is the process-level analogue of ``Session.schedule_batch``:
:class:`~repro.serving.service.ServiceRunner` plugs it in as its batch
executor (``serve --workers N``), keeping micro-batching and coalescing
semantics unchanged — batches are simply scattered over processes instead
of threads.

Workers are addressed by index: worker ``i`` is one spawned process at the
far end of one pipe, and a round trip sends it one message and receives
exactly one reply.  A worker that dies (OOM kill, segfault) is detected on
its pipe: its batch items come back in-band as :class:`WorkerError` naming
its index and exit code, the other workers keep serving, and every
pool-wide round (report, metrics, a tune's broadcast) raises
that error.
There is no automatic restart.
"""

from __future__ import annotations

import multiprocessing
import threading
from contextlib import ExitStack
from dataclasses import asdict, dataclass
from typing import (Any, Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from ..api.registry import RegistryError
from ..api.session import Session
from ..api.types import ScheduleRequest, ScheduleResponse
from ..observability import merge_registry_dicts
from ..passes.registry import PipelineRegistryError
from ..scheduler.database import DatabaseEntry, TuningDatabase
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
    builtin type (``error_type`` names the original class), or the death
    of a worker process (``error_type`` is ``"WorkerExited"``)."""

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

    def build_session(self, entries: Sequence[Dict[str, Any]]) -> Session:
        """Build this worker's session around the pool's database entries."""
        database = TuningDatabase(
            [DatabaseEntry.from_dict(item) for item in entries])
        return Session(threads=self.threads, scheduler=self.scheduler,
                       size=self.size, pipeline=self.pipeline,
                       cache_path=self.cache_path, database=database,
                       search=self.search, mcts=self.mcts)


# -- worker-process half ----------------------------------------------------------
#
# Every worker process runs ``_worker_main``; the session it builds lives in
# the globals of the *child* process, where the per-op bodies below read it.

_WORKER_SESSION: Optional[Session] = None


def _worker_main(connection, config: WorkerConfig,
                 entries: List[Dict[str, Any]]) -> None:
    """Body of one worker: build the session, send the outcome as the first
    reply, then answer each ``(op, payload)`` message with one
    ``(error, value)`` reply until the coordinator closes the pipe."""
    global _WORKER_SESSION
    try:
        _WORKER_SESSION = config.build_session(entries)
    except Exception as error:  # noqa: BLE001 - start() re-raises it
        connection.send((_describe(error), None))
        return
    connection.send((None, None))
    while True:
        try:
            op, payload = connection.recv()
        except EOFError:
            break
        try:
            reply = (None, _WORKER_OPS[op](payload))
        except Exception as error:  # noqa: BLE001 - sent to the coordinator
            reply = (_describe(error), None)
        connection.send(reply)
    _WORKER_SESSION.close()


def _describe(error: BaseException) -> Dict[str, str]:
    return {"type": type(error).__name__, "message": str(error)}


def _worker_schedule(request_dict: Dict[str, Any]) -> Dict[str, Any]:
    """Run one schedule request on this worker's session.

    The response travels as one pre-encoded JSON string: JSON encoding
    happens here, on a parallel worker, and the coordinator (and the HTTP
    layer, which replies with exactly these bytes) never re-parses or
    re-serializes the response on its serial hot path.  A tune request
    returns the database entries it added and takes them back out of this
    worker's database: the coordinator appends them, in its order, on every
    worker.
    """
    session = _WORKER_SESSION
    checkpoint = session.database.checkpoint()
    try:
        request = ScheduleRequest.from_dict(request_dict)
        payload = {"response_json": session.schedule(request).to_json()}
    except Exception as error:  # noqa: BLE001 - marshalled to the coordinator
        payload = {"error": _describe(error)}
    added = session.database.rewind(checkpoint)
    if added:
        payload["entries"] = [entry.to_dict() for entry in added]
    # Ship this worker's finished trace spans back in-band so they rejoin
    # the coordinator's trace (the request carried the parent context).
    trace = request_dict.get("trace")
    spans = trace and session.tracer.export_fragment(trace["trace_id"])
    if spans:
        payload["spans"] = spans
    return payload


def _worker_absorb_entries(entry_dicts: List[Dict[str, Any]]) -> None:
    """Append the coordinator's newly gathered entries, in its order."""
    for item in entry_dicts:
        _WORKER_SESSION.database.add_entry(DatabaseEntry.from_dict(item))


#: What a worker does with each message ``(op, payload)``.
_WORKER_OPS = {
    "schedule": lambda items: [_worker_schedule(item) for item in items],
    "absorb": _worker_absorb_entries,
    "report": lambda _: _WORKER_SESSION.report().to_dict(),
    "metrics": lambda _: _WORKER_SESSION.metrics.to_dict(),
}


# -- coordinator half --------------------------------------------------------------

#: Report fields merged by union instead of summation.
_UNION_FIELDS = {"schedulers"}
#: Report fields merged by taking the first value (homogeneous per pool:
#: every worker holds the same tuning database).
_FIRST_FIELDS = {"cache_backend", "database_entries", "database_version"}


def _sum_into(target: Dict[str, Any], source: Dict[str, Any]) -> None:
    """Add ``source``'s numbers into ``target`` key-wise, nested dicts too
    (per-pass stats and their counters: hoisted, cse_hits, ...)."""
    for key, value in source.items():
        if isinstance(value, dict):
            _sum_into(target.setdefault(key, {}), value)
        else:
            target[key] = target.get(key, 0) + value


def merge_worker_reports(reports: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate per-worker ``SessionReport`` dicts into one pool-wide dict.

    Counters sum, ``schedulers`` unions, ``normalization_passes`` sums per
    pass name, and the database fields and ``cache_backend`` are the first
    worker's (every worker reports the same ones).
    """
    merged: Dict[str, Any] = {}
    for report in reports:
        for key, value in report.items():
            if key in _FIRST_FIELDS:
                merged.setdefault(key, value)
            elif key in _UNION_FIELDS:
                merged[key] = sorted(set(merged.get(key, [])) | set(value))
            elif key == "normalization_passes":
                _sum_into(merged.setdefault(key, {}), value)
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                merged[key] = merged.get(key, 0) + value
            else:
                merged.setdefault(key, value)
    return merged


@dataclass
class PoolStats:
    """What the pool did since it started (coordinator-side counters)."""

    scheduled: int = 0
    tuned: int = 0
    errors: int = 0
    gathered_entries: int = 0

    def to_dict(self) -> Dict[str, int]:
        return asdict(self)


def _rebuild_error(error: Dict[str, str]) -> Exception:
    """The coordinator-side exception for a worker's ``_describe`` dict."""
    portable = _PORTABLE_ERRORS.get(error["type"])
    if portable is not None:
        return portable(error["message"])
    return WorkerError(error["type"], error["message"])


class _Worker(NamedTuple):
    # The lock keeps one round trip at a time on the pipe.
    process: multiprocessing.process.BaseProcess
    connection: Any
    lock: threading.Lock


class WorkerPool:
    """``num_workers`` processes, each a Session over the shared cache.

    The pool is a drop-in batch executor for the service: its
    :meth:`schedule_batch` has the contract of
    ``Session.schedule_batch(..., return_exceptions=True)`` — responses in
    input order, per-item exceptions in-band — so
    :class:`~repro.serving.service.ServiceRunner` can scatter its
    micro-batches over processes without changing queueing, coalescing, or
    error semantics.

    ``database`` seeds the workers: each one holds all of its entries, in
    order.  The coordinator keeps its own copy (``pool.database``);
    :meth:`tune` mutates it and then every worker the same way.

    Use as a context manager, or call :meth:`close` — worker processes are
    real OS resources.
    """

    def __init__(self, num_workers: int,
                 config: Optional[WorkerConfig] = None,
                 database: Optional[TuningDatabase] = None):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = num_workers
        self.config = config or WorkerConfig()
        self.stats = PoolStats()
        #: Coordinator-side tracer that worker span fragments rejoin; the
        #: serving layer points this at the coordinator session's tracer.
        self.tracer = None
        self.database = TuningDatabase(
            list(database.entries) if database is not None else None)
        #: Held while ``database`` changes and the change is broadcast, so
        #: every worker applies the coordinator's mutations in its order.
        self._database_lock = threading.Lock()
        self._workers: Optional[List[_Worker]] = None
        self._closed = False
        self._lifecycle_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------------

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def start(self) -> None:
        """Spawn every worker and block until all sessions are built.

        Optional — the first batch starts the pool on demand — but a server
        (and any benchmark) wants the spawn cost paid up front.  A session
        build failure (bad cache path, unknown scheduler) is that worker's
        first reply: ``start()`` closes the pool and re-raises it.
        """
        with self._lifecycle_lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            if self._workers is not None:
                return
            context = multiprocessing.get_context("spawn")
            entries = [entry.to_dict() for entry in self.database.entries]
            workers = []
            for _ in range(self.num_workers):
                connection, child_end = context.Pipe()
                process = context.Process(target=_worker_main, daemon=True,
                                          args=(child_end, self.config,
                                                entries))
                process.start()
                # Only the child may hold its end: a coordinator copy would
                # make recv() on a dead worker block instead of hit EOF.
                child_end.close()
                workers.append(_Worker(process, connection, threading.Lock()))
            # Published only now, so no round trip reads a build reply.
            built = [self._receive(index, worker)
                     for index, worker in enumerate(workers)]
            self._workers = workers
        for outcome in built:
            if isinstance(outcome, Exception):
                self.close()
                raise outcome

    def close(self) -> None:
        """Shut the workers down (idempotent): a pipe closes after its round
        trip in flight; its worker then closes its session and exits."""
        with self._lifecycle_lock:
            self._closed = True
        for worker in self._workers or ():
            with worker.lock:
                worker.connection.close()
            worker.process.join()

    @staticmethod
    def _receive(index: int, worker: _Worker) -> Any:
        """The next reply of worker ``index``: its value, or the exception
        it stands for — :class:`WorkerError` if the worker is gone."""
        try:
            error, value = worker.connection.recv()
        except (EOFError, OSError):
            worker.process.join(timeout=1)  # reap it: the exit code is known
            return WorkerError("WorkerExited", f"worker {index} exited "
                               f"(exit code {worker.process.exitcode})")
        return value if error is None else _rebuild_error(error)

    def _exchange(self, messages: Dict[int, Tuple[str, Any]]
                  ) -> Dict[int, Any]:
        """Send ``messages[i]`` to worker ``i``, then receive one reply from
        each (a dead worker's is its :class:`WorkerError`).  Every round
        trip of the pool goes through here; locks are taken in index order,
        so concurrent rounds never interleave on one pipe or deadlock."""
        if self._workers is None or self._closed:
            self.start()  # on first use; raises once the pool is closed
        workers = self._workers
        with ExitStack() as held:
            for index in sorted(messages):
                held.enter_context(workers[index].lock)
            for index in sorted(messages):
                try:
                    workers[index].connection.send(messages[index])
                except OSError:
                    pass  # a broken pipe: the receive below reports the worker
            return {index: self._receive(index, workers[index])
                    for index in sorted(messages)}

    def _broadcast(self, op: str, payload: Any = None) -> List[Any]:
        """One ``(op, payload)`` message to every worker; the replies in
        index order.  The survivors take the round even if a worker is
        dead, whose :class:`WorkerError` is then raised."""
        replies = list(self._exchange(dict.fromkeys(
            range(self.num_workers), (op, payload))).values())
        for reply in replies:
            if isinstance(reply, Exception):
                raise reply
        return replies

    # -- scheduling --------------------------------------------------------------

    def _scatter(self, requests: Sequence[ScheduleRequest]
                 ) -> List[Union[Dict[str, Any], Exception]]:
        """Send worker ``i`` the requests ``i``, ``i + n``, ... as one
        message; the per-item payloads in input order, a dead worker's
        items as its :class:`WorkerError`."""
        n = self.num_workers
        dicts = [request.to_dict() for request in requests]
        replies = self._exchange({index: ("schedule", dicts[index::n])
                                  for index in range(min(n, len(dicts)))})
        payloads: List[Any] = [None] * len(requests)
        for index, reply in replies.items():
            if isinstance(reply, Exception):
                reply = [reply] * len(payloads[index::n])
            payloads[index::n] = reply
        return payloads

    def _decode(self, payload: Union[Dict[str, Any], Exception]
                ) -> Union[ScheduleResponse, Exception]:
        if isinstance(payload, Exception):
            return payload
        spans = payload.get("spans")
        if spans and self.tracer is not None:
            # Rejoined before the caller's future resolves: the root span
            # always closes over a complete trace.
            self.tracer.absorb(spans)
        error = payload.get("error")
        if error is not None:
            return _rebuild_error(error)
        # Text-backed: the coordinator mostly shuttles these bytes onward
        # (to HTTP as they are), so it parses nothing until a field is read.
        return ScheduleResponse.from_json(payload["response_json"])

    def schedule_batch(self, requests: Sequence[ScheduleRequest]
                       ) -> List[Union[ScheduleResponse, Exception]]:
        """Scatter the batch over the workers; gather responses in order.

        Requests are split round-robin into one message per worker.
        Matches ``Session.schedule_batch(..., return_exceptions=True)``:
        per-item exceptions come back in-band so one bad request cannot
        fail its batchmates.  So does a dead worker *process*: each item
        sent to it is a :class:`WorkerError` naming its index and exit
        code, while the other workers' items, in this batch and every later
        one, succeed.  Dead workers are not restarted.  The entries of tune
        requests reach ``pool.database`` and every worker as :meth:`tune`
        describes.
        """
        payloads = self._scatter(requests)
        results = list(map(self._decode, payloads))
        for request, result in zip(requests, results):
            if isinstance(result, Exception):
                self.stats.errors += 1
            elif request.tune:
                self.stats.tuned += 1
            else:
                self.stats.scheduled += 1
        gathered = [item for payload in payloads if isinstance(payload, dict)
                    for item in payload.get("entries", ())]
        if gathered:
            with self._database_lock:
                for item in gathered:
                    self.database.add_entry(DatabaseEntry.from_dict(item))
                self.stats.gathered_entries += len(gathered)
                self._broadcast("absorb", gathered)
        return results

    def schedule(self, request: ScheduleRequest) -> ScheduleResponse:
        """Schedule one request on some worker; raises on failure."""
        result = self.schedule_batch([request])[0]
        if isinstance(result, Exception):
            raise result
        return result

    # -- tuning: scatter, gather, append, broadcast ------------------------------

    def tune(self, requests: Sequence[ScheduleRequest]
             ) -> List[Union[ScheduleResponse, Exception]]:
        """Scatter tune requests over the workers and gather the results.

        Requests are split like :meth:`schedule_batch`'s.  Each tune runs
        against the database as the call found it: the worker hands back
        the entries it added and takes them out of its own database.  The
        coordinator appends every gathered entry to ``pool.database`` in
        input order and broadcasts them under one lock, so every worker
        appends them in that order too: every later request, on any worker,
        schedules against the grown database, at the coordinator's version.
        """
        if not all(request.tune for request in requests):
            raise ValueError("WorkerPool.tune takes tune requests "
                             "(ScheduleRequest(..., tune=True))")
        return self.schedule_batch(requests)

    # -- introspection -----------------------------------------------------------

    def report(self) -> Dict[str, Any]:
        """Scatter-gather of every worker's ``Session.report()``.

        Returns ``{"num_workers", "reports_collected", "merged",
        "per_worker", "pool"}`` where ``merged`` aggregates the per-worker
        counters (see :func:`merge_worker_reports`) and ``pool`` carries the
        coordinator-side :class:`PoolStats`.  Exact: one report per worker.
        """
        reports = self._broadcast("report")
        return {
            "num_workers": self.num_workers,
            "reports_collected": len(reports),
            "merged": merge_worker_reports(reports),
            "per_worker": {str(index): report
                           for index, report in enumerate(reports)},
            "pool": self.stats.to_dict(),
        }

    def metrics(self) -> Dict[str, Any]:
        """Scatter-gather of every worker's metrics-registry snapshot.

        Returns ``{"num_workers", "registries_collected", "merged",
        "per_worker"}``; ``merged`` sums the per-worker snapshots with
        :func:`~repro.observability.merge_registry_dicts` (counters and
        histogram buckets add, so the merged histogram count equals the sum
        of per-worker counts).  Exact like :meth:`report`.
        """
        snapshots = self._broadcast("metrics")
        return {
            "num_workers": self.num_workers,
            "registries_collected": len(snapshots),
            "merged": merge_registry_dicts(snapshots),
            "per_worker": {str(index): snapshot
                           for index, snapshot in enumerate(snapshots)},
        }
