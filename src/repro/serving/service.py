"""The asyncio scheduling service core.

:class:`SchedulingService` turns a :class:`~repro.api.Session` into an async
request processor:

* **policy-ordered queue** — ``schedule()`` coroutines enqueue their request
  and await a future; a single batcher task drains the queue in the order of
  the configured :class:`~repro.serving.policy.QueuePolicy`
  (:attr:`ServiceConfig.policy`).  The default, ``strict-priority``, drains
  strictly by :attr:`~repro.api.ScheduleRequest.priority` (0 most urgent,
  FIFO within one priority) so urgent requests overtake queued bulk traffic;
  ``weighted-fair`` trades that for starvation-freedom.
* **admission control** — an :class:`AdmissionController` sheds load before
  it queues: a bounded queue depth and optional per-client in-flight limits
  reject excess requests with a typed :class:`AdmissionError` (the HTTP
  layer maps it to ``429 Too Many Requests`` with a retry hint).
* **micro-batching** — the batcher dispatches what is queued: the most
  urgent request plus every request already waiting behind it, up to
  :attr:`ServiceConfig.max_batch_size`, with no window for stragglers —
  arrivals during a batch form the next one.  A batch runs through
  :meth:`repro.api.Session.schedule_batch` in a worker thread — or is
  scattered over a :class:`~repro.serving.workers.WorkerPool` when one is
  attached — so one cache and one tuning database serve the whole batch.
* **response fast lane** — on the caller's thread, before the loop, the
  service reads the session's response-level cache
  (:meth:`repro.api.Session.lookup_response`); a hit returns the final,
  pre-encoded response bytes straight to the caller — no loop hop, no queue,
  no batch, no IR, no JSON parse — with a single sampled root, stored as its
  raw fields, instead of the slow path's full span tree.  Entries are
  written back after each batch from responses whose normalization and
  schedule both came from cache, so the fast lane is bit-identical to what
  the slow path would have served.
* **coalescing** — identical in-flight requests (same program content hash,
  parameters, scheduler, threads, normalize flag) share one future: burst
  duplicates cost a single scheduler invocation, counted on
  ``Session.report().coalesced_requests``.  Priority and client identity do
  not split the coalescing key — they affect queue order and admission, not
  the scheduling outcome.

:class:`ServiceRunner` hosts the service on an event loop in a background
thread and exposes a blocking ``schedule()`` for synchronous callers (the
HTTP endpoint, benchmarks, tests); only a fast-lane miss crosses to the loop.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import os
import threading
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..api.hashing import request_fingerprint
from ..api.session import Session
from ..api.types import ScheduleRequest, ScheduleResponse
from ..ir.nodes import Program
from ..observability import CounterView, MetricsRegistry, RequestRoot, Span
from .policy import create_policy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (workers use api)
    from .workers import WorkerPool

_NOT_RUNNING = "service is not running; call start() first"


@dataclass
class ServiceConfig:
    """Tunables of the async scheduling service.

    The batcher has no timer: it dispatches what is queued when it is free,
    so batches grow only while requests arrive faster than batches run.
    """

    #: Largest batch handed to ``Session.schedule_batch`` at once.
    max_batch_size: int = 16
    #: Thread-pool width of each ``schedule_batch`` call (None: session default).
    max_workers: Optional[int] = None
    #: Most requests allowed in the service queue before load shedding
    #: rejects new arrivals.  0 (the default) is unbounded — identical to
    #: the pre-admission behavior, so existing programmatic consumers are
    #: unaffected; the ``serve`` CLI applies an ops default of 256.
    max_queue_depth: int = 0
    #: Most in-flight requests per ``ScheduleRequest.client`` identity
    #: (0: unlimited; requests without a client are never client-limited).
    max_client_inflight: int = 0
    #: Retry hint attached to admission rejections (HTTP ``Retry-After``).
    retry_after_s: float = 0.05
    #: Serve repeat requests from the session's response-level cache,
    #: bypassing queueing and batching entirely (the warm-path fast lane).
    #: Responses are bit-identical to the slow path's, so this is safe to
    #: leave on; disable to force every request through the full pipeline.
    fast_lane: bool = True
    #: Queue-scheduling policy (see :mod:`repro.serving.policy`):
    #: ``strict-priority`` (the default) or ``weighted-fair``.
    policy: str = "strict-priority"
    #: Target end-to-end latency SLO (the default alert rules burn
    #: against it).
    latency_slo_s: float = 0.25


class AdmissionError(RuntimeError):
    """A request the service refused to queue (load shedding).

    ``reason`` is machine-readable (``"queue-full"`` or ``"client-limit"``)
    and ``retry_after_s`` hints when retrying is sensible; the HTTP layer
    turns both into a ``429`` response with a ``Retry-After`` header.
    """

    def __init__(self, reason: str, message: str, retry_after_s: float):
        super().__init__(message)
        self.reason = reason
        self.retry_after_s = retry_after_s


class AdmissionController:
    """Decides whether a request may enter the service queue.

    Two independent limits, both configured on :class:`ServiceConfig`:

    * **queue depth** — once ``max_queue_depth`` requests are queued, new
      *work-creating* requests are shed.  Coalescing riders are exempt: a
      rider attaches to an in-flight schedule and adds nothing to the queue,
      so rejecting it would shed load the service has already accepted.
    * **per-client in-flight** — at most ``max_client_inflight`` requests
      (queued, running, or riding) per :attr:`ScheduleRequest.client`
      identity, so one client cannot monopolize the queue.  Requests that
      carry no client identity are not client-limited.

    All calls happen on the service's event loop — a fast-lane hit, the only
    thing served on callers' threads, is never admitted — so the controller
    needs no locking; ``stats`` reads registry counters, safe from any thread.
    """

    def __init__(self, config: ServiceConfig,
                 metrics: Optional[MetricsRegistry] = None):
        self.config = config
        metrics = metrics if metrics is not None else MetricsRegistry()
        shed = metrics.counter(
            "repro_admission_shed_total",
            "Requests shed by admission control, by reason.", ("reason",))
        #: What this controller decided since it started (``/v1/report``
        #: renders this view of the ``repro_admission_*`` instruments).
        self.stats = CounterView({
            "admitted": metrics.counter(
                "repro_admission_admitted_total",
                "Requests admitted into the service queue."),
            "rejected_queue_full": shed.labels("queue-full"),
            "rejected_client_limit": shed.labels("client-limit"),
        })
        self._client_inflight: Dict[str, int] = {}

    def admit(self, request: ScheduleRequest, queue_depth: int,
              rider: bool) -> None:
        """Admit or raise :class:`AdmissionError`; admitted requests must be
        paired with exactly one :meth:`release`."""
        config = self.config
        client = request.client
        if client is not None and config.max_client_inflight > 0:
            inflight = self._client_inflight.get(client, 0)
            if inflight >= config.max_client_inflight:
                self.stats.inc("rejected_client_limit")
                raise AdmissionError(
                    "client-limit",
                    f"client {client!r} already has {inflight} requests "
                    f"in flight (limit {config.max_client_inflight})",
                    config.retry_after_s)
        if not rider and config.max_queue_depth > 0 \
                and queue_depth >= config.max_queue_depth:
            self.stats.inc("rejected_queue_full")
            raise AdmissionError(
                "queue-full",
                f"service queue is full ({queue_depth} requests, "
                f"limit {config.max_queue_depth})",
                config.retry_after_s)
        self.stats.inc("admitted")
        if client is not None:
            self._client_inflight[client] = \
                self._client_inflight.get(client, 0) + 1

    def release(self, request: ScheduleRequest) -> None:
        """Return an admitted request's per-client slot."""
        client = request.client
        if client is None:
            return
        remaining = self._client_inflight.get(client, 0) - 1
        if remaining > 0:
            self._client_inflight[client] = remaining
        else:
            self._client_inflight.pop(client, None)

    def client_inflight(self, client: str) -> int:
        return self._client_inflight.get(client, 0)


@dataclass
class RequestTiming:
    """Per-request serving timings (returned by ``schedule_timed``).

    ``queue_wait_s`` is the time the request's queue entry (or, for a
    coalesced rider, its leader's) spent queued before a batch claimed it;
    ``total_s`` is end-to-end from admission to response.
    """

    total_s: float = 0.0
    queue_wait_s: float = 0.0
    coalesced: bool = False
    fast_lane: bool = False
    trace_id: Optional[str] = None


@dataclass
class _Pending:
    """One queued request plus the future its submitters await.

    ``best_key`` is the best (smallest) policy sort key any coalesced rider
    has contributed — ``best_priority`` keeps the human-readable twin for
    traces — and ``claimed`` marks the entry once a batch picked it up,
    so stale duplicate queue entries (left behind by re-prioritization) are
    skipped on pop.  ``enqueued_at`` / ``claimed_at`` (event-loop clock)
    feed the queue-wait metrics and access logs.
    """

    key: str
    request: ScheduleRequest
    future: "asyncio.Future[ScheduleResponse]" = field(repr=False, default=None)
    best_priority: int = 0
    best_key: Tuple[float, ...] = (0.0,)
    claimed: bool = False
    enqueued_at: float = 0.0
    claimed_at: float = 0.0
    # Wall-clock twins of the loop-clock stamps above: trace spans use
    # ``time.time()`` so coordinator and worker spans share one timeline.
    enqueued_wall: float = 0.0
    claimed_wall: float = 0.0


class SchedulingService:
    """Async facade over one session: priority queue, admission control,
    micro-batching, coalescing.

    ``pool`` optionally attaches a :class:`~repro.serving.workers.WorkerPool`:
    micro-batches are then scattered over worker processes instead of the
    session's thread pool, with identical queueing/coalescing/error
    semantics (the pool's ``schedule_batch`` has the same in-band-exception
    contract as ``Session.schedule_batch(return_exceptions=True)``).
    """

    def __init__(self, session: Session, config: Optional[ServiceConfig] = None,
                 pool: "Optional[WorkerPool]" = None):
        self.session = session
        self.config = config or ServiceConfig()
        self.pool = pool
        #: All service instruments live on the session's registry, so one
        #: ``/metrics`` scrape covers session, cache, and service.  Sessions
        #: are duck-typed here (tests stub them), so a missing registry
        #: falls back to a private one.
        metrics = getattr(session, "metrics", None)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: The session's tracer (sessions are duck-typed in tests; a stub
        #: without one simply serves untraced).
        self._tracer = getattr(session, "tracer", None)
        #: Fallback request-id source for programmatic callers that don't
        #: pass one (the HTTP layer always does).
        self._local_prefix = f"local-{os.getpid()}-"
        self._local_ids = itertools.count(1)
        counter = self.metrics.counter
        self._largest_batch = self.metrics.gauge(
            "repro_service_largest_batch",
            "High-water mark of the micro-batch size.")
        #: What this service did since it started: the view ``/v1/report``
        #: renders from the ``repro_service_*`` instruments ``/metrics``
        #: scrapes.
        self.stats = CounterView({
            "requests": counter(
                "repro_service_requests_total",
                "Requests admitted into the scheduling service."),
            "coalesced": counter(
                "repro_service_coalesced_total",
                "Requests that rode an identical in-flight request."),
            "batches": counter(
                "repro_service_batches_total", "Micro-batches executed."),
            "scheduled": counter(
                "repro_service_scheduled_total",
                "Requests resolved with a schedule response."),
            "fast_lane": counter(
                "repro_service_fast_lane_total",
                "Requests served from the response-level cache fast lane."),
            "errors": counter(
                "repro_service_errors_total",
                "Requests resolved with an exception."),
            "rejected": counter(
                "repro_service_rejected_total",
                "Requests shed by admission control."),
        }, {"largest_batch": self._largest_batch})
        self.admission = AdmissionController(self.config, self.metrics)
        self._queue_depth_gauge = self.metrics.gauge(
            "repro_service_queue_depth",
            "Live requests in the service queue (stale entries excluded).")
        latency = self.metrics.histogram(
            "repro_request_latency_seconds",
            "End-to-end latency of admitted requests by priority class.",
            ("priority",))
        #: One series per priority class, each bound on first use.
        self._latency = functools.lru_cache(maxsize=None)(
            lambda priority: latency.labels(str(priority)))
        self._phase_histogram = self.metrics.histogram(
            "repro_request_phase_seconds",
            "Time spent per serving phase (queue wait, schedule "
            "execution).", ("phase",))
        #: The queue-ordering policy.  Raises PolicyError for unknown names
        #: at construction, not at first request.
        self.policy = create_policy(self.config.policy)
        # Entries are ``(sort_key, arrival_seq, _Pending)``: the asyncio
        # PriorityQueue pops the smallest tuple, so the policy's key order
        # decides who drains first (strict-priority keys are ``(priority,)``
        # — the historic order) and the monotonically increasing arrival
        # sequence keeps FIFO order within one key (and keeps _Pending out
        # of comparisons).  A pending may appear more than once (an urgent
        # rider re-enqueues its queued leader at the better key);
        # ``_Pending.claimed`` makes the stale duplicates no-ops on pop.
        self._queue: "Optional[asyncio.PriorityQueue[Tuple[Tuple[float, ...], int, _Pending]]]" = None
        self._arrival_seq = 0
        # Stale duplicates currently in the queue; subtracted from qsize()
        # so admission control sees real pending work, not bookkeeping.
        self._stale_entries = 0
        self._inflight: Dict[str, _Pending] = {}
        self._batcher: Optional[asyncio.Task] = None
        self._running = False

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        if self._running:
            return
        self._queue = asyncio.PriorityQueue()
        self._stale_entries = 0
        self._update_queue_gauge()
        self._running = True
        self._batcher = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
            self._batcher = None
        for pending in self._inflight.values():
            if not pending.future.done():
                pending.future.cancel()
        self._inflight.clear()

    # -- submission --------------------------------------------------------------

    async def schedule(self, request: ScheduleRequest) -> ScheduleResponse:
        """Submit one request; awaits its (possibly coalesced) response.

        May raise :class:`AdmissionError` before any work is queued when the
        service is saturated (queue depth) or the request's client is over
        its in-flight limit.
        """
        response, _ = await self.schedule_timed(request)
        return response

    async def schedule_timed(self, request: ScheduleRequest,
                             request_id: Optional[str] = None
                             ) -> Tuple[ScheduleResponse, RequestTiming]:
        """Like :meth:`schedule`, additionally returning the request's
        :class:`RequestTiming` (end-to-end latency, queue wait) — the HTTP
        layer's access log consumes it.  ``request_id`` seeds the request's
        deterministic trace id (so the HTTP layer, access log, and trace
        ring buffer all agree); omitted, the service mints a local one."""
        served, key, root = self.fast_lane(request, request_id)
        if served is not None:
            return served
        return await self.slow_lane(request, request_id, key, root)

    def fast_lane(self, request: ScheduleRequest,
                  request_id: Optional[str] = None
                  ) -> Tuple[Optional[Tuple[ScheduleResponse, RequestTiming]],
                             str, Optional[Span]]:
        """The synchronous front of every request, on the thread that asks.

        Returns ``(served, key, root)``: a response-cache hit is ``served``,
        the finished ``(response, timing)`` — pre-encoded bytes, only the echo
        re-encoded, one sampled root stored as its raw fields, no loop,
        admission or queue — and ``root`` is ``None``; else ``served`` is
        ``None`` and :meth:`slow_lane` takes the fingerprint ``key`` and the
        still-open ``root`` span (if any).  Thread-safe (cache, tracer and
        instruments lock; ``_inflight`` is only peeked at), so a slow cache
        read stalls nobody else's request.
        """
        arrived = time.perf_counter()
        if not self._running:
            raise RuntimeError(_NOT_RUNNING)
        if request.tune:
            raise ValueError("tune requests mutate the database and are not "
                             "served; tune through the session directly")
        key = request_fingerprint(request)
        # (stub sessions have no response cache; in-flight duplicates coalesce)
        lookup = getattr(self.session, "lookup_response", None)
        if not (lookup and self.config.fast_lane) or key in self._inflight:
            return None, key, None
        # Reading the response cache before admission keeps hits immune to
        # queue saturation (they add no queued work) at one cache get per
        # miss.  A sampled root that misses becomes the slow lane's root.
        root = self._begin_root(request, request_id, sample=True)
        tracer = self._tracer
        try:
            # The context goes in explicitly (the request is the caller's):
            # the response carries this trace id, or none when sampled out.
            response = lookup(
                request, root.context() if root is not None else None, key)
        except BaseException:
            if root is not None:
                tracer.finish(root.span(tracer.process), status="error")
            raise
        if response is None:
            return None, key, (root.span(tracer.process)
                               if root is not None else None)
        self.stats.inc("requests")
        self.stats.inc("fast_lane")
        self.stats.inc("scheduled")
        timing = RequestTiming(
            total_s=max(0.0, time.perf_counter() - arrived), fast_lane=True,
            trace_id=root.trace_id if root is not None else None)
        self._latency(request.priority).observe(timing.total_s)
        if root is not None:
            tracer.record_hit(root)
        return (response, timing), key, None

    async def slow_lane(self, request: ScheduleRequest,
                        request_id: Optional[str], key: str,
                        root: Optional[Span]
                        ) -> Tuple[ScheduleResponse, RequestTiming]:
        """Admit, coalesce or enqueue and await a :meth:`fast_lane` miss (its
        ``key`` and ``root``) — loop only, where ``_inflight`` is authoritative."""
        existing = self._inflight.get(key)
        tracer = self._tracer
        outcome = "error"
        try:
            if not self._running:  # stop() may have run since the front asked
                raise RuntimeError(_NOT_RUNNING)
            if root is None:
                minted = self._begin_root(request, request_id)
                if minted is not None:
                    root = minted.span(tracer.process)
            admit_wall = time.time()
            try:
                self.admission.admit(
                    request,
                    queue_depth=self._queue.qsize() - self._stale_entries,
                    rider=existing is not None)
            except AdmissionError:
                self.stats.inc("rejected")
                outcome = "shed"
                raise
            if root is not None:
                tracer.record(root.trace_id, root.span_id,
                              "service.admission", admit_wall, time.time())
                # Child spans of every downstream layer (queue, schedule,
                # session, worker) attach under this root via the request:
                # the service's own shallow copy, so the caller's object is
                # never written to (a reused one would carry a stale id).
                request = replace(request, trace=root.context())
            self.stats.inc("requests")
            loop = asyncio.get_running_loop()
            timing = RequestTiming(
                coalesced=existing is not None,
                trace_id=root.trace_id if root is not None else None)
            started = loop.time()
            try:
                if existing is not None:
                    # Coalesce: ride the identical in-flight request.  The
                    # response program is copied so concurrent consumers never
                    # share IR.
                    self.stats.inc("coalesced")
                    self.session.record_coalesced()
                    if root is not None:
                        root.set_attribute("coalesced", True)
                    rider_key = self.policy.rider_key(request, started)
                    if rider_key < existing.best_key \
                            and not existing.claimed:
                        # An urgent rider must not drain at its leader's
                        # worse key: re-enqueue the still-queued leader at
                        # the better one.  The now-stale worse entry pops
                        # later and is skipped through ``claimed``.
                        existing.best_key = rider_key
                        existing.best_priority = min(existing.best_priority,
                                                     request.priority)
                        self._arrival_seq += 1
                        # The superseded worse-key entry is now stale.
                        self._stale_entries += 1
                        await self._queue.put((rider_key,
                                               self._arrival_seq, existing))
                        self._update_queue_gauge()
                    response = await asyncio.shield(existing.future)
                    self._finish_timing(timing, request, existing, started,
                                        loop)
                    outcome = "ok"
                    return self._reissue(response, request,
                                         timing.trace_id), timing
                future: "asyncio.Future[ScheduleResponse]" = loop.create_future()
                sort_key = self.policy.sort_key(request, started)
                pending = _Pending(key, request, future,
                                   best_priority=request.priority,
                                   best_key=sort_key,
                                   enqueued_at=started,
                                   enqueued_wall=time.time())
                self._inflight[key] = pending
                self._arrival_seq += 1
                await self._queue.put((sort_key, self._arrival_seq,
                                       pending))
                self._update_queue_gauge()
                try:
                    response = await asyncio.shield(future)
                finally:
                    # Failed requests are end-to-end requests too: their
                    # latency belongs in the per-priority distribution.
                    self._finish_timing(timing, request, pending, started,
                                        loop)
                outcome = "ok"
                return response, timing
            finally:
                # Admitted requests hold their per-client slot until their
                # response (or failure) resolves, riders included.
                self.admission.release(request)
        finally:
            if root is not None:
                # Finishing the parentless root finalizes the trace into
                # the ring buffer — after worker fragments were absorbed,
                # since futures only resolve once the batch was decoded.
                tracer.finish(root, status=outcome)

    def _begin_root(self, request: ScheduleRequest, request_id: Optional[str],
                    sample: bool = False) -> Optional[RequestRoot]:
        """Mint ``request``'s root — ``None`` when it goes untraced.

        Both lanes start here: a hit stores the root as its whole trace, a
        miss opens it as the slow lane's root span.  ``sample`` subjects the
        request to ``Tracer.sample_rate``: a sampled-out fast-lane candidate
        pays one counter increment (``Tracer.tick()``), no id minting.
        """
        tracer = self._tracer
        if tracer is None or not (tracer.tick() if sample else tracer.enabled):
            return None
        if request_id is None:
            request_id = self._local_prefix + str(next(self._local_ids))
        program = request.program
        return RequestRoot(
            request_id, request.priority,
            program.name if isinstance(program, Program) else str(program),
            request.client)

    def _finish_timing(self, timing: RequestTiming, request: ScheduleRequest,
                       pending: _Pending, started: float,
                       loop: asyncio.AbstractEventLoop) -> None:
        """Observe one admitted request's end-to-end latency under the
        *submitter's* priority (riders keep their own class, not their
        leader's) and fill in the timing the access log reports."""
        timing.total_s = max(0.0, loop.time() - started)
        if pending.claimed_at:
            timing.queue_wait_s = max(
                0.0, pending.claimed_at - pending.enqueued_at)
        self._latency(request.priority).observe(timing.total_s)

    def _update_queue_gauge(self) -> None:
        queue = self._queue
        if queue is not None:
            self._queue_depth_gauge.set(
                max(0, queue.qsize() - self._stale_entries))

    @staticmethod
    def _reissue(response: ScheduleResponse, request: ScheduleRequest,
                 trace_id: Optional[str]) -> ScheduleResponse:
        copied = response.result.copy()
        # Match the sequential cache-hit path: the served program keeps the
        # *rider's* name, not the coalescing leader's (fingerprints are
        # name-insensitive, so the two can differ for IR-program requests).
        if isinstance(request.program, Program):
            copied.program.name = request.program.name
        # ``from_cache`` keeps its documented meaning (served from the
        # content-addressed cache): a rider of a cold leader was computed,
        # not cache-served — coalescing is counted on the session report.
        return ScheduleResponse(
            request=request, scheduler=response.scheduler,
            program=copied.program, result=copied,
            runtime_s=response.runtime_s, normalized=response.normalized,
            input_hash=response.input_hash,
            canonical_hash=response.canonical_hash,
            from_cache=response.from_cache,
            normalization_cache_hit=response.normalization_cache_hit,
            # A rider reports *its own* trace, not its leader's.
            trace_id=trace_id)

    # -- the batcher -------------------------------------------------------------

    async def _collect_batch(self) -> List[_Pending]:
        """Claim the most urgent request, waiting for one if none is queued,
        then every request already queued behind it in policy order, up to
        ``max_batch_size``.  Nothing waits for stragglers: requests that
        arrive while a batch runs form the next one."""
        queue = self._queue
        loop = asyncio.get_running_loop()
        batch: List[_Pending] = []
        # ``get`` suspends only on an empty queue, so once the batch holds a
        # request the drain claims what is queued without yielding.
        while len(batch) < self.config.max_batch_size \
                and not (batch and queue.empty()):
            sort_key, _, pending = await queue.get()
            if pending.claimed:
                # A stale duplicate left behind by rider re-prioritization:
                # its live twin's better key already was or will be served.
                self._stale_entries -= 1
                continue
            # Stateful policies advance on entry into service (weighted-fair
            # moves its global virtual clock to the served key, which floors
            # idle classes' next keys).
            self.policy.on_dequeue(sort_key)
            pending.claimed = True
            pending.claimed_at = loop.time()
            pending.claimed_wall = time.time()
            batch.append(pending)
        self._update_queue_gauge()
        return batch

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        tracer = self._tracer
        while True:
            batch = await self._collect_batch()
            self.stats.inc("batches")
            self._largest_batch.set_max(len(batch))
            dispatched_at = loop.time()
            dispatched_wall = time.time()
            schedule_spans: Dict[str, Any] = {}
            for pending in batch:
                self._phase_histogram.labels("queue").observe(
                    max(0.0, pending.claimed_at - pending.enqueued_at))
                context = getattr(pending.request, "trace", None)
                if tracer is None or not tracer.enabled or not context:
                    continue
                trace_id = context["trace_id"]
                parent_id = context.get("span_id")
                tracer.record(trace_id, parent_id, "service.queue",
                              pending.enqueued_wall, pending.claimed_wall,
                              {"priority": pending.best_priority})
                # The schedule span becomes the parent of everything the
                # executing side records (session, passes, cache, search) —
                # including worker-process spans, which rejoin through the
                # serialized request.trace context.
                span = tracer.begin(
                    "service.schedule", trace_id, parent_id=parent_id,
                    attrs={"executor": ("pool" if self.pool is not None
                                        else "threads"),
                           "batch_size": len(batch)},
                    start_s=dispatched_wall)
                pending.request.trace = span.context()
                schedule_spans[pending.key] = span
            requests = [pending.request for pending in batch]
            try:
                responses = await loop.run_in_executor(
                    None, self._schedule_batch, requests)
            except Exception as error:  # noqa: BLE001 - forwarded to callers
                # Batch-level failure (e.g. the executor itself); per-item
                # failures are returned in-band by return_exceptions below.
                self.stats.inc("errors", len(batch))
                for span in schedule_spans.values():
                    tracer.finish(span, status="error")
                for pending in batch:
                    self._inflight.pop(pending.key, None)
                    if not pending.future.done():
                        pending.future.set_exception(error)
                continue
            schedule_s = max(0.0, loop.time() - dispatched_at)
            for pending, response in zip(batch, responses):
                self._inflight.pop(pending.key, None)
                self._phase_histogram.labels("schedule").observe(schedule_s)
                span = schedule_spans.pop(pending.key, None)
                failed = isinstance(response, Exception)
                if span is not None:
                    tracer.finish(span, status="error" if failed else "ok")
                if failed:
                    # One invalid request must not fail its batchmates.
                    self.stats.inc("errors")
                    if not pending.future.done():
                        pending.future.set_exception(response)
                else:
                    self.stats.inc("scheduled")
                    if not pending.future.done():
                        pending.future.set_result(response)

    def _schedule_batch(self, requests: List[ScheduleRequest]
                        ) -> List[ScheduleResponse]:
        if self.pool is not None:
            responses = self.pool.schedule_batch(requests)
        else:
            responses = self.session.schedule_batch(
                requests, max_workers=self.config.max_workers,
                return_exceptions=True)
        if self.config.fast_lane:
            # Feed the fast lane: responses whose normalization and
            # schedule both came from cache are deterministic repeats, so
            # their encoded bytes are stored for zero-parse serving (the
            # store itself checks the flags).  Runs on the executor thread,
            # off the event loop.
            store = getattr(self.session, "store_response", None)
            if store is not None:
                for request, response in zip(requests, responses):
                    if not isinstance(response, Exception):
                        store(request, response)
        return responses


class ServiceRunner:
    """A :class:`SchedulingService` on an event loop in a background thread.

    Synchronous consumers (the HTTP endpoint, scripts, tests) call
    :meth:`schedule`, which blocks the calling thread while the service
    batches and coalesces on its own loop.
    """

    def __init__(self, session: Session, config: Optional[ServiceConfig] = None,
                 pool: "Optional[WorkerPool]" = None):
        self.session = session
        self.service = SchedulingService(session, config, pool=pool)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()

    def __enter__(self) -> "ServiceRunner":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def stats(self) -> CounterView:
        return self.service.stats

    def start(self) -> None:
        if self._thread is not None:
            return
        self._loop = asyncio.new_event_loop()

        def run() -> None:
            asyncio.set_event_loop(self._loop)
            self._loop.call_soon(self._started.set)
            self._loop.run_forever()

        self._thread = threading.Thread(target=run, name="repro-serving",
                                        daemon=True)
        self._thread.start()
        self._started.wait()
        asyncio.run_coroutine_threadsafe(self.service.start(), self._loop).result()

    def stop(self) -> None:
        if self._thread is None:
            return
        asyncio.run_coroutine_threadsafe(self.service.stop(), self._loop).result()
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._loop.close()
        self._thread = None
        self._loop = None

    def schedule(self, request: ScheduleRequest,
                 timeout: Optional[float] = None) -> ScheduleResponse:
        """Blocking submit of one request through the async service."""
        return self.schedule_timed(request, timeout)[0]

    def schedule_timed(self, request: ScheduleRequest,
                       timeout: Optional[float] = None,
                       request_id: Optional[str] = None
                       ) -> Tuple[ScheduleResponse, RequestTiming]:
        """Blocking submit returning ``(response, RequestTiming)`` — the
        HTTP layer uses the timing for its structured access log and passes
        ``request_id`` so the trace id matches the log line.  A hit is served
        on the calling thread; only a miss crosses to the event loop."""
        loop = self._loop
        if loop is None:
            raise RuntimeError("runner is not started")
        served, key, root = self.service.fast_lane(request, request_id)
        if served is not None:
            return served
        return asyncio.run_coroutine_threadsafe(
            self.service.slow_lane(request, request_id, key, root),
            loop).result(timeout)

    def schedule_many(self, requests: List[ScheduleRequest],
                      timeout: Optional[float] = None) -> List[ScheduleResponse]:
        """Submit many requests concurrently; returns responses in order."""
        if self._loop is None:
            raise RuntimeError("runner is not started")

        async def gather() -> Tuple[ScheduleResponse, ...]:
            return await asyncio.gather(
                *(self.service.schedule(request) for request in requests))

        future = asyncio.run_coroutine_threadsafe(gather(), self._loop)
        return list(future.result(timeout))
