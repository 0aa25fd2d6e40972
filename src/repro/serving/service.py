"""The scheduling service core.

:class:`ServiceRunner` turns a :class:`~repro.api.Session` into a request
processor for synchronous callers (the HTTP endpoint, benchmarks, scripts,
tests):

* **response fast lane** — on the caller's thread, before any lock, a
  response-cache hit (:meth:`repro.api.Session.lookup_response`) is
  answered with its stored bytes — no queue, no IR, no JSON parse.
  Entries are written back after each scheduled request from responses whose
  normalization and schedule both came from cache, so the fast lane is
  bit-identical to what the slow path would have served.
* **admission control** — an :class:`AdmissionController` sheds load before
  it queues: a bounded queue depth and optional per-client in-flight limits
  reject excess requests with a typed :class:`AdmissionError` (HTTP 429
  with a retry hint).
* **coalescing** — identical in-flight requests (same program content hash,
  parameters, scheduler, threads, normalize flag) share one future: burst
  duplicates cost a single scheduler invocation.  Priority and client
  identity do not split the key; they affect queue order and admission.
* **priority queue** — a miss is queued and its caller blocks on a
  future; one batcher thread drains the queue by priority (0 most urgent),
  FIFO within one priority, one request at a time: it takes the most
  urgent request, schedules it with :meth:`repro.api.Session.schedule`,
  resolves its future and takes the next, so no reply waits for another
  request's schedule.
"""
from __future__ import annotations

import functools
import heapq
import itertools
import os
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..api.hashing import request_fingerprint
from ..api.session import Session
from ..api.types import ScheduleRequest, ScheduleResponse
from ..ir.nodes import Program
from ..observability import CounterView, MetricsRegistry, Span

_NOT_RUNNING = "service is not running; call start() first"


@dataclass
class ServiceConfig:
    """Tunables of the scheduling service (admission control)."""

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

    def __post_init__(self) -> None:
        # Out of range, a value would be read silently as another one: a
        # negative queue depth or client limit as unbounded.
        for name, low in (("max_queue_depth", 0), ("max_client_inflight", 0),
                          ("retry_after_s", 0)):
            if not getattr(self, name) >= low:
                raise ValueError(
                    f"{name} must be >= {low}, got {getattr(self, name)!r}")


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

    The runner calls :meth:`admit` and :meth:`release` under its lock — a
    fast-lane hit, the only request served without it, is never admitted —
    so the controller keeps no lock of its own; ``stats`` reads registry
    counters, safe from any thread.
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
    coalesced rider, its leader's) spent queued before the batcher took
    it, which includes every request scheduled ahead of it;
    ``total_s`` is end-to-end from admission to response; ``trace_id``
    names a miss's trace (``None`` for a hit or an untraced service).
    """

    total_s: float = 0.0
    queue_wait_s: float = 0.0
    coalesced: bool = False
    fast_lane: bool = False
    trace_id: Optional[str] = None


@dataclass(eq=False)
class _Pending:
    """One queued request plus the future its submitters block on.

    The queue is a heap of these ordered by ``(priority, seq)``: the most
    urgent priority any submitter brought, then arrival — FIFO within one
    priority.  An urgent coalescing rider moves its still-queued leader up
    in place.  ``enqueued_at`` / ``claimed_at`` (``perf_counter``;
    0 until the batcher takes the entry) feed the queue-wait metrics and
    access logs.
    """

    key: str
    request: ScheduleRequest
    priority: int
    seq: int
    future: "Future[ScheduleResponse]" = field(default_factory=Future,
                                               repr=False)
    enqueued_at: float = 0.0
    claimed_at: float = 0.0
    # Wall-clock twins of the stamps above: trace spans use ``time.time()``.
    enqueued_wall: float = 0.0
    claimed_wall: float = 0.0

    def __lt__(self, other: "_Pending") -> bool:
        return (self.priority, self.seq) < (other.priority, other.seq)


class ServiceRunner:
    """One session as a service for synchronous callers.

    :meth:`schedule` serves a response-cache hit on the calling thread; a
    miss is queued and its caller blocks until the batcher thread (the
    runner's one thread) has scheduled it.
    """

    def __init__(self, session: Session, config: Optional[ServiceConfig] = None):
        self.session = session
        self.config = config or ServiceConfig()
        #: All service instruments live on the session's registry, so one
        #: ``/metrics`` scrape covers session, cache, and service.
        self.metrics = session.metrics
        self._tracer = session.tracer
        #: Fallback request-id source for programmatic callers that don't
        #: pass one (the HTTP layer always does).
        self._local_prefix = f"local-{os.getpid()}-"
        self._local_ids = itertools.count(1)
        counter = self.metrics.counter
        self.admission = AdmissionController(self.config, self.metrics)
        # Admission and the response cache already count requests, sheds
        # and fast-lane hits: the view reads their series, restating none.
        admitted = counter("repro_admission_admitted_total")
        shed = counter("repro_admission_shed_total", labelnames=("reason",))
        fast_lane = counter("repro_cache_requests_total",
                            labelnames=("level", "outcome")
                            ).labels("response", "hit")
        #: What this service did since it started: the view ``/v1/report``
        #: renders from the series ``/metrics`` scrapes.  ``requests`` and
        #: ``fast_lane`` count the session's response-cache hits, wherever
        #: they come from: a direct ``session.lookup_response`` hit counts
        #: as a request served on the fast lane (and schedules nothing).
        self.stats = CounterView({
            "requests": (admitted, fast_lane),
            "coalesced": counter(
                "repro_service_coalesced_total",
                "Requests that rode an identical in-flight request."),
            "scheduled": counter(
                "repro_service_scheduled_total",
                "Requests resolved with a schedule response."),
            "fast_lane": fast_lane,
            "errors": counter(
                "repro_service_errors_total",
                "Requests resolved with an exception."),
            "rejected": (shed.labels("queue-full"),
                         shed.labels("client-limit")),
        })
        self._queue_depth = self.metrics.gauge(
            "repro_service_queue_depth",
            "Live requests in the service queue (stale entries excluded).")
        latency = self.metrics.histogram(
            "repro_request_latency_seconds",
            "End-to-end latency of admitted requests by priority class.",
            ("priority",))
        #: One series per priority class, each bound on first use.
        self._latency = functools.lru_cache(maxsize=None)(
            lambda priority: latency.labels(str(priority)))
        # The condition's lock guards the queue, ``_inflight`` and the
        # admission state; the batcher waits on it for work.
        self._cond = threading.Condition()
        self._queue: List[_Pending] = []  # a heap (see _Pending)
        self._arrivals = itertools.count(1)
        self._inflight: Dict[str, _Pending] = {}
        self._batcher: Optional[threading.Thread] = None
        self._running = False

    def __enter__(self) -> "ServiceRunner":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        with self._cond:
            if self._batcher is not None:
                return
            self._running = True
            self._batcher = threading.Thread(target=self._run,
                                             name="repro-serving", daemon=True)
            self._batcher.start()

    def stop(self) -> None:
        """Cancel every waiting request at once, then join the batcher after
        the request in flight (if any): no schedule outlives ``stop()``."""
        with self._cond:
            batcher, self._batcher = self._batcher, None
            if batcher is None:
                return
            self._running = False
            for pending in self._inflight.values():
                pending.future.cancel()
            self._inflight.clear()
            self._queue.clear()
            self._queue_depth.set(0)
            self._cond.notify()
        batcher.join()

    # -- submission --------------------------------------------------------------

    def schedule(self, request: ScheduleRequest,
                 timeout: Optional[float] = None) -> ScheduleResponse:
        """Submit one request; blocks until its (possibly coalesced) response.

        May raise :class:`AdmissionError` before any work is queued when the
        service is saturated (queue depth) or the request's client is over
        its in-flight limit.
        """
        return self.schedule_timed(request, timeout)[0]

    def schedule_timed(self, request: ScheduleRequest,
                       timeout: Optional[float] = None,
                       request_id: Optional[str] = None
                       ) -> Tuple[ScheduleResponse, RequestTiming]:
        """Like :meth:`schedule`, additionally returning the request's
        :class:`RequestTiming` (end-to-end latency, queue wait) — the HTTP
        layer's access log consumes it.  ``request_id`` seeds a miss's
        deterministic trace id (so the HTTP layer, access log, and trace
        ring buffer all agree); omitted, the runner mints a local one.  A
        hit records no trace."""
        served, key, arrived = self.fast_lane(request)
        if served is not None:
            return served
        return self._slow_lane(request, request_id, key, arrived, timeout)

    def fast_lane(self, request: ScheduleRequest
                  ) -> Tuple[Optional[Tuple[ScheduleResponse, RequestTiming]],
                             str, float]:
        """The lock-free front of every request, on the thread that asks.

        Returns ``(served, key, arrived)``: a response-cache hit is
        ``served``, the finished ``(response, timing)`` — pre-encoded bytes,
        only the echo re-encoded, no admission, queue or trace; else
        ``served`` is ``None`` and the slow lane takes the fingerprint
        ``key`` and the ``perf_counter`` time the request ``arrived``.
        Thread-safe (cache and instruments lock; ``_inflight`` is only
        peeked at), so a slow cache read stalls nobody else's request.
        """
        arrived = time.perf_counter()
        if not self._running:
            raise RuntimeError(_NOT_RUNNING)
        if request.tune:
            raise ValueError("tune requests mutate the database and are not "
                             "served; tune through the session directly")
        key = request_fingerprint(request)
        if key in self._inflight:  # an in-flight duplicate coalesces
            return None, key, arrived
        # Reading the response cache before admission keeps hits immune to
        # queue saturation (they add no queued work) at one cache get per
        # miss.
        response = self.session.lookup_response(request, key)
        if response is None:
            return None, key, arrived
        self.stats.inc("scheduled")
        timing = RequestTiming(
            total_s=max(0.0, time.perf_counter() - arrived), fast_lane=True)
        self._latency(request.priority).observe(timing.total_s)
        return (response, timing), key, arrived

    def _slow_lane(self, request: ScheduleRequest, request_id: Optional[str],
                   key: str, arrived: float, timeout: Optional[float]
                   ) -> Tuple[ScheduleResponse, RequestTiming]:
        """Admit a :meth:`fast_lane` miss (its ``key``, arrived at the
        ``perf_counter`` time ``arrived``), then ride an identical in-flight
        request or queue it, and block until the batcher resolves it."""
        tracer = self._tracer
        root = None
        outcome = "error"
        try:
            if tracer.enabled:
                root = self._open_root(request, request_id, arrived)
                # Child spans of every downstream layer (queue, schedule,
                # session) attach under this root via the request:
                # the runner's own shallow copy, so the caller's object is
                # never written to (a reused one would carry a stale id).
                request = replace(request, trace=root.context())
            admit_wall = time.time()
            with self._cond:
                if not self._running:  # stop() may have run since the front
                    raise RuntimeError(_NOT_RUNNING)
                pending = self._inflight.get(key)
                rider = pending is not None
                try:
                    self.admission.admit(request, len(self._queue), rider)
                except AdmissionError:
                    outcome = "shed"
                    raise
                if root is not None:
                    tracer.record(root.trace_id, root.span_id,
                                  "service.admission", admit_wall, time.time())
                started = time.perf_counter()
                if rider:
                    self._ride(pending, request, root)
                else:
                    pending = _Pending(
                        key, request, request.priority, next(self._arrivals),
                        enqueued_at=started, enqueued_wall=time.time())
                    self._inflight[key] = pending
                    heapq.heappush(self._queue, pending)
                    self._queue_depth.set(len(self._queue))
                    self._cond.notify()
            timing = RequestTiming(
                coalesced=rider,
                trace_id=root.trace_id if root is not None else None)
            try:
                response = pending.future.result(timeout)
            finally:
                # Failed requests are end-to-end requests too: their latency
                # belongs in the distribution of the submitter's priority (a
                # rider keeps its own class, not its leader's).  Admitted
                # requests, riders included, hold their per-client slot
                # until here.
                timing.total_s = max(0.0, time.perf_counter() - started)
                if pending.claimed_at:
                    timing.queue_wait_s = \
                        pending.claimed_at - pending.enqueued_at
                self._latency(request.priority).observe(timing.total_s)
                with self._cond:
                    self.admission.release(request)
            outcome = "ok"
            if rider:
                response = self._reissue(response, request, timing.trace_id)
            return response, timing
        finally:
            if root is not None:
                # Finishing the parentless root finalizes the trace into
                # the ring buffer; a future resolves only after its schedule
                # finished every span, so a span lands late only when the
                # caller stopped waiting (a timeout or stop()).
                tracer.finish(root, status=outcome)

    def _ride(self, leader: _Pending, request: ScheduleRequest,
              root: Optional[Span]) -> None:
        """Coalesce ``request`` onto its identical in-flight ``leader``
        (under the lock); its response is a copy (see :meth:`_reissue`)."""
        self.stats.inc("coalesced")
        if root is not None:
            root.set_attribute("coalesced", True)
        if request.priority < leader.priority and not leader.claimed_at:
            # An urgent rider must not drain at its leader's worse priority:
            # the still-queued leader moves up to the rider's, behind
            # whatever already waits there.
            leader.priority = request.priority
            leader.seq = next(self._arrivals)
            heapq.heapify(self._queue)

    def _open_root(self, request: ScheduleRequest, request_id: Optional[str],
                   arrived: float) -> Span:
        """Open a miss's ``request`` root span, started when the request
        arrived (before the fast lane's cache read)."""
        if request_id is None:
            request_id = self._local_prefix + str(next(self._local_ids))
        program = request.program
        attributes = {"request_id": request_id, "priority": request.priority,
                      "program": (program.name if isinstance(program, Program)
                                  else str(program))}
        if request.client is not None:
            attributes["client"] = request.client
        # ``arrived`` is a perf_counter reading; the span wants wall time.
        return self._tracer.begin_request(
            request_id, attributes,
            time.time() - (time.perf_counter() - arrived))

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
        # not cache-served — rides are counted in ``stats.coalesced``.
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

    def _run(self) -> None:
        while True:
            with self._cond:
                while self._running and not self._queue:
                    self._cond.wait()
                if not self._running:
                    return
                pending = heapq.heappop(self._queue)
                pending.claimed_at = time.perf_counter()
                pending.claimed_wall = time.time()
                self._queue_depth.set(len(self._queue))
            self._dispatch(pending)

    def _dispatch(self, pending: _Pending) -> None:
        """Schedule one claimed request on the batcher thread, then resolve
        its future."""
        tracer = self._tracer
        request = pending.request
        span = None
        if tracer.enabled and request.trace:
            trace_id = request.trace["trace_id"]
            parent_id = request.trace.get("span_id")
            tracer.record(trace_id, parent_id, "service.queue",
                          pending.enqueued_wall, pending.claimed_wall,
                          {"priority": pending.priority})
            # The schedule span becomes the parent of everything the
            # session records (passes, cache, search) through the request's
            # trace context.
            span = tracer.begin("service.schedule", trace_id,
                                parent_id=parent_id)
            request.trace = span.context()
        try:
            response = self.session.schedule(request)
            # Feed the fast lane: a response whose normalization and
            # schedule both came from cache is a deterministic repeat, so
            # its encoded bytes are stored for zero-parse serving (the
            # store itself checks the flags).
            self.session.store_response(request, response)
        except Exception as error:  # noqa: BLE001 - forwarded to the callers
            response = error
        failed = isinstance(response, Exception)
        # Under the lock: stop() cancels waiters under it too, so a future
        # is resolved only if nobody cancelled it.
        with self._cond:
            self._inflight.pop(pending.key, None)
            if span is not None:
                tracer.finish(span, status="error" if failed else "ok")
            self.stats.inc("errors" if failed else "scheduled")
            if pending.future.done():
                return
            if failed:
                pending.future.set_exception(response)
            else:
                pending.future.set_result(response)
