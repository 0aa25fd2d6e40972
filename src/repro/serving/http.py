"""JSON-over-HTTP endpoint of the scheduling service (stdlib only).

Routes:

* ``GET  /healthz``     — liveness: ``{"status": "ok"}``.
* ``GET  /v1/report``   — session counters plus service and admission
  stats, and the firing alert rules.
* ``GET  /metrics``     — the session's metrics registry in the Prometheus
  text exposition format (queue-depth gauge, per-priority latency
  histograms, admission-shed counters, cache traffic).  A route that
  raises answers 500 with the error.
* ``GET  /v1/traces``   — newest-first summaries of the trace ring buffer
  (``?limit=N`` caps the listing); ``GET /v1/traces/<trace_id>`` returns
  one full span tree.  404 while the session's tracer is disabled.
* ``GET  /alerts``      — the alert rule (queue-depth saturation, absent
  when the queue is unbounded) evaluated over a fresh registry snapshot,
  with the firing subset called out.
* ``POST /v1/schedule`` — body: a :class:`~repro.api.ScheduleRequest` dict
  (``{"program": "gemm:b"}`` at its simplest, optionally with ``priority``
  0-9 and an opaque ``client`` identity); response: the
  :class:`~repro.api.ScheduleResponse` dict.  Identical concurrent requests
  are coalesced; repeats are cache hits.  When the service sheds load
  (queue full or per-client limit) the reply is ``429 Too Many Requests``
  with a ``Retry-After`` header and a machine-readable ``reason``.

Schedule traffic can additionally be written to a **structured access log**
(:class:`JsonAccessLog`): one JSON object per request with a request id,
priority, client identity, queue wait, total duration, outcome, and whether
the response-cache fast lane served it.

Each handler thread reads one kept-alive connection, answers response-cache
hits itself and blocks on the :class:`~repro.serving.service.ServiceRunner`
only on a miss; the runner's batcher thread schedules the queued misses
one at a time, most urgent first, and identical concurrent misses
coalesce onto one schedule.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import json
import math
import socket
import socketserver
import sys
import threading
import time
import uuid
from http import HTTPStatus
from typing import Any, Dict, IO, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from ..api.session import Session
from ..api.types import (HIGHEST_PRIORITY, LOWEST_PRIORITY, ScheduleRequest)
from ..ir.nodes import Program
from ..observability import default_alert_rules
from .client import MAX_BODY_BYTES, MessageError, read_message
from .service import AdmissionError, ServiceConfig, ServiceRunner

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Largest accepted ``threads`` value.  Session caches one scheduler and
#: cost model per distinct thread count, so an unbounded client-supplied
#: value would grow server memory without limit.
MAX_REQUEST_THREADS = 256


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = daemon_threads = True


class JsonAccessLog:
    """A thread-safe JSON-lines access log for schedule traffic.

    One JSON object per request: request id, timestamp, priority, client
    identity, program descriptor, HTTP status, outcome, queue wait, and
    total duration.  ``target`` may be a file path (opened in append mode
    and closed with the log) or any writable text stream (shared, left
    open).
    """

    def __init__(self, target: "Union[str, IO[str]]"):
        self._owns_stream = isinstance(target, str)
        self._stream: "IO[str]" = (open(target, "a", encoding="utf-8")
                                   if isinstance(target, str) else target)
        self._lock = threading.Lock()

    def write(self, entry: Dict[str, Any]) -> None:
        line = json.dumps(entry, sort_keys=True)
        with self._lock:
            self._stream.write(line + "\n")
            self._stream.flush()

    def close(self) -> None:
        if self._owns_stream:
            self._stream.close()


def _program_descriptor(program: Any) -> str:
    """A short, log-safe description of a request's program."""
    if isinstance(program, Program):
        return f"ir:{program.name}"
    text = str(program)
    return text if len(text) <= 80 else text[:77] + "..."


class ServingServer:
    """The HTTP front of one session + scheduling service.

    ``access_log`` — a path or a writable text stream — enables the
    structured JSON access log for ``/v1/schedule`` traffic.  ``/metrics``
    is always served (it reads the registry every request writes); the
    ``/v1/traces`` routes answer while the session's tracer is enabled.
    """

    def __init__(self, session: Session, host: str = "127.0.0.1",
                 port: int = 0, config: Optional[ServiceConfig] = None,
                 access_log: "Union[None, str, IO[str]]" = None):
        self.session = session
        self.runner = ServiceRunner(session, config)
        self.metrics = session.metrics
        self.tracer = session.tracer
        self.alert_rules = default_alert_rules(
            self.runner.config.max_queue_depth)
        self.access_log = (JsonAccessLog(access_log)
                           if access_log is not None else None)
        # Request ids: a per-server random prefix plus a monotonic sequence
        # — unique across restarts, orderable within one.
        self._id_prefix = uuid.uuid4().hex[:8]
        self._id_sequence = itertools.count(1)
        handler = _make_handler(self)
        try:
            self._httpd = _TCPServer((host, port), handler)
        except Exception:
            # Binding can fail (port in use); don't leak the opened log
            # handle — stop() never runs for a half-constructed server.
            if self.access_log is not None:
                self.access_log.close()
            raise
        self._thread: Optional[threading.Thread] = None
        self._started_at = 0.0
        self._closed = False
        self._connections: set = set()  # sockets of the live handlers

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "ServingServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def start(self) -> None:
        """Start the service and serve HTTP in a background thread."""
        if self._closed:
            # stop() closed the listening socket for good; serving on it
            # again would accept nothing while looking healthy.
            raise RuntimeError("server was stopped; create a new ServingServer")
        if self._thread is not None:
            return
        self.runner.start()
        self._started_at = time.monotonic()
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="repro-serving-http", daemon=True)
        self._thread.start()

    def serve_forever(self) -> None:
        """Start and block until interrupted (the CLI ``serve`` entry)."""
        self.start()
        try:
            self._thread.join()
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._closed = True
        self._httpd.shutdown()
        self._thread.join()
        self._httpd.server_close()
        for connection in list(self._connections):
            # Kept-alive connections end with the server: an idle handler
            # reads EOF and exits, a reply in flight is still written whole.
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # its handler closed it meanwhile
        self.runner.stop()
        if self.access_log is not None:
            self.access_log.close()
        self._thread = None

    # -- route implementations ---------------------------------------------------

    def handle_healthz(self) -> Tuple[int, Dict[str, Any]]:
        return 200, {"status": "ok",
                     "uptime_s": round(time.monotonic() - self._started_at, 3)}

    def handle_report(self) -> Tuple[int, Dict[str, Any]]:
        payload = self.session.report().to_dict()
        payload["service"] = self.runner.stats.to_dict()
        payload["admission"] = self.runner.admission.stats.to_dict()
        _, alerts = self.handle_alerts()
        payload["alerts"] = {"firing": alerts["firing"],
                             "rules": len(self.alert_rules)}
        return 200, payload

    def handle_alerts(self) -> Tuple[int, Dict[str, Any]]:
        """``GET /alerts``: evaluate every rule over a fresh snapshot."""
        snapshot = self.metrics.to_dict()
        states = [rule.evaluate(snapshot) for rule in self.alert_rules]
        return 200, {
            "alerts": [state.to_dict() for state in states],
            "firing": sorted(state.name for state in states if state.firing),
            "rules": [rule.to_dict() for rule in self.alert_rules],
        }

    def handle_traces(self, limit: Optional[int] = None
                      ) -> Tuple[int, Dict[str, Any]]:
        """``GET /v1/traces``: newest-first trace summaries."""
        if not self.tracer.enabled:
            return 404, {"error": "tracing is disabled"}
        return 200, {"traces": self.tracer.traces(limit),
                     "capacity": self.tracer.capacity,
                     "stored": self.tracer.stored}

    def handle_trace(self, trace_id: str) -> Tuple[int, Dict[str, Any]]:
        """``GET /v1/traces/<trace_id>``: one full span tree."""
        if not self.tracer.enabled:
            return 404, {"error": "tracing is disabled"}
        record = self.tracer.get(trace_id)
        if record is None:
            return 404, {"error": f"unknown trace {trace_id!r}"}
        return 200, record.to_dict()

    def handle_metrics(self) -> Tuple[int, str, str]:
        """Returns ``(status, content_type, body)`` for ``GET /metrics``:
        the session's registry (service queue, latency and admission plus
        the session's cache traffic) as Prometheus text."""
        return 200, PROMETHEUS_CONTENT_TYPE, self.metrics.render()

    def _next_request_id(self) -> str:
        return f"{self._id_prefix}-{next(self._id_sequence)}"

    def _failed_trace_id(self, request_id: str) -> Optional[str]:
        """The trace the service recorded for a request it failed, if any.

        A shed, failed or cancelled request has no timing to name its
        trace, and the exception that reports it may be shared with the
        riders coalesced onto it; the ring buffer is asked instead
        (failures are rare)."""
        tracer = self.tracer
        if not tracer.enabled:
            return None
        trace_id = tracer.trace_id_for(request_id)
        return trace_id if tracer.get(trace_id) is not None else None

    def _log_schedule(self, request_id: str, body: Dict[str, Any],
                      request: Optional[ScheduleRequest], status: int,
                      outcome: str, started: float,
                      queue_wait_s: Optional[float],
                      coalesced: Optional[bool],
                      fast_lane: Optional[bool] = None,
                      trace_id: Optional[str] = None) -> None:
        if self.access_log is None:
            return
        self.access_log.write({
            "ts": round(time.time(), 6),
            "request_id": request_id,
            # The trace the service recorded for this request, as the reply
            # and the ring buffer name it; null when none was recorded.
            "trace_id": trace_id,
            "route": "/v1/schedule",
            "program": _program_descriptor(
                request.program if request is not None
                else body.get("program")),
            "priority": (request.priority if request is not None
                         else body.get("priority")),
            "client": (request.client if request is not None
                       else body.get("client")),
            "status": status,
            "outcome": outcome,
            "queue_wait_s": (round(queue_wait_s, 6)
                             if queue_wait_s is not None else None),
            "duration_s": round(time.monotonic() - started, 6),
            "coalesced": coalesced,
            "fast_lane": fast_lane,
        })

    def handle_schedule(self, body: Dict[str, Any]
                        ) -> "Tuple[int, Dict[str, Any] | str]":
        started = time.monotonic()
        request_id = self._next_request_id()

        def done(status: int, payload: "Dict[str, Any] | str", outcome: str,
                 request: Optional[ScheduleRequest] = None,
                 queue_wait_s: Optional[float] = None,
                 coalesced: Optional[bool] = None,
                 fast_lane: Optional[bool] = None,
                 trace_id: Optional[str] = None
                 ) -> "Tuple[int, Dict[str, Any] | str]":
            self._log_schedule(request_id, body, request, status, outcome,
                               started, queue_wait_s, coalesced,
                               fast_lane=fast_lane, trace_id=trace_id)
            return status, payload

        def failed(status: int, payload: Dict[str, Any], outcome: str
                   ) -> "Tuple[int, Dict[str, Any] | str]":
            return done(status, payload, outcome, request,
                        trace_id=self._failed_trace_id(request_id))

        try:
            # Trace context belongs to the service: a client-supplied one is
            # unvalidated outside input that would name the reply's trace id.
            request = ScheduleRequest.from_dict(
                {key: value for key, value in body.items() if key != "trace"})
        except (KeyError, TypeError, ValueError) as error:
            return done(400, {"error": f"invalid schedule request: {error}"},
                        "invalid")
        if request.threads is not None and not (
                isinstance(request.threads, int)
                and 1 <= request.threads <= MAX_REQUEST_THREADS):
            return done(400, {"error": f"threads must be an integer in "
                                       f"[1, {MAX_REQUEST_THREADS}]"},
                        "invalid", request)
        if not HIGHEST_PRIORITY <= request.priority <= LOWEST_PRIORITY:
            return done(400, {"error": f"priority must be an integer in "
                                       f"[{HIGHEST_PRIORITY}, "
                                       f"{LOWEST_PRIORITY}] "
                                       f"({HIGHEST_PRIORITY} most urgent)"},
                        "invalid", request)
        try:
            response, timing = self.runner.schedule_timed(
                request, request_id=request_id)
        except AdmissionError as error:
            # Load shedding is not a client mistake: 429 plus a retry hint,
            # so well-behaved clients back off instead of hammering.
            return failed(429, {"error": str(error), "reason": error.reason,
                                "retry_after_s": error.retry_after_s},
                          "shed")
        except (ValueError, TypeError, KeyError) as error:
            # Unknown workloads/schedulers raise RegistryError (a KeyError):
            # the request was malformed, not the server.
            return failed(400, {"error": str(error)}, "invalid")
        except concurrent.futures.CancelledError:
            # Server shutdown cancelled the in-flight request (caught before
            # the generic 500 below).
            return failed(503, {"error": "server is shutting down"},
                          "cancelled")
        except Exception as error:  # noqa: BLE001 - surfaced as HTTP 500
            return failed(500, {"error": f"{type(error).__name__}: {error}"},
                          "error")
        # Fast-lane responses are backed by pre-encoded JSON text (the
        # response cache serialized them): ``to_json`` replies with those
        # bytes verbatim.
        return done(200, response.to_json(), "ok", request,
                    queue_wait_s=timing.queue_wait_s,
                    coalesced=timing.coalesced,
                    fast_lane=timing.fast_lane, trace_id=timing.trace_id)


def _make_handler(server: ServingServer):
    class Handler(socketserver.StreamRequestHandler):
        server_version = "repro-serving/0.1 Python/" + sys.version.split()[0]
        #: Seconds an idle kept connection stays open, and seconds a request
        #: has from its first byte to its last (slow-loris: a trickled head
        #: or an under-sent body must not pin a handler thread).
        timeout = 30
        disable_nagle_algorithm = True  # TCP_NODELAY; see _reply

        def handle(self) -> None:
            server._connections.add(self.connection)
            self._buffer = bytearray()  # received, not yet read
            try:  # stop() may have swept already
                while not server._closed and self._read_request():
                    (self.do_GET if self.command == "GET" else self.do_POST)()
                    if self.close_connection:
                        break
            finally:
                server._connections.discard(self.connection)

        def _reject(self, status: int, message: str) -> bool:
            self._reply(status, {"error": message}, close=True)
            return False

        def _read_request(self) -> bool:
            """Read one request into ``command``, ``path`` and ``body``;
            False when the connection ends first (answered, if it must be)."""
            try:
                request_line, headers, self.body = read_message(
                    self.connection, self._buffer, self.timeout)
            except MessageError as error:
                return self._reject(error.status, str(error))
            except socket.timeout:  # an idle connection closes quietly
                if self._buffer:
                    self._reject(408, "timed out reading the request")
                return False
            except OSError:  # EOF or a reset
                return False
            words = request_line.split()
            if len(words) != 3 or not words[2].startswith("HTTP/"):
                return self._reject(400, f"bad request line {request_line!r}")
            self.command, self.path, version = words
            if not version.startswith("HTTP/1."):
                return self._reject(505, f"unsupported version {version!r}")
            if self.command not in ("GET", "POST"):
                return self._reject(501, f"unsupported method {words[0]!r}")
            connection = headers.get("connection", "").strip()
            self.close_connection = connection == "close" or (
                version == "HTTP/1.0" and connection != "keep-alive")
            return True

        def _reply(self, status: int, payload: "Dict[str, Any] | str",
                   close: bool = False,
                   content_type: str = "application/json") -> None:
            # A str payload is pre-encoded (the fast lane, /metrics).
            body = (payload if isinstance(payload, str)
                    else json.dumps(payload)).encode("utf-8")
            # time.gmtime() alone reads C time(), a coarser clock that lags
            # time.time() just after a second boundary.
            day, month, date, clock, year = \
                time.asctime(time.gmtime(time.time())).split()
            head = [
                f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
                f"Server: {self.server_version}",
                f"Date: {day}, {int(date):02d} {month} {year} {clock} GMT",
                f"Content-Type: {content_type}",
                f"Content-Length: {len(body)}"]
            if status == 429 and isinstance(payload, dict) \
                    and "retry_after_s" in payload:
                # Retry-After takes whole seconds; math.ceil (not round(),
                # whose banker's rounding maps 2.5 to 2) so hints always
                # round up and "0" never tells clients to hammer immediately.
                head.append("Retry-After: %d"
                            % max(1, math.ceil(payload["retry_after_s"])))
            if close:
                head.append("Connection: close")
                self.close_connection = True
            # One write per reply: a header/body split (or a buffered
            # writer's 8 KiB) is two segments, and a kept-alive client's
            # delayed ACK of the first holds the second ~40 ms under Nagle.
            self.wfile.write("\r\n".join(head + ["", ""]).encode("latin-1")
                             + body)

        def do_GET(self) -> None:  # noqa: N802 - named for its method
            # A route that raises is answered like an unexpected scheduling
            # error, and the kept-alive connection stays usable.
            try:
                parts = urlsplit(self.path)
                if parts.path == "/healthz":
                    self._reply(*server.handle_healthz())
                elif parts.path == "/v1/report":
                    self._reply(*server.handle_report())
                elif parts.path == "/metrics":
                    status, content_type, text = server.handle_metrics()
                    self._reply(status, text, content_type=content_type)
                elif parts.path == "/alerts":
                    self._reply(*server.handle_alerts())
                elif parts.path == "/v1/traces":
                    query = parse_qs(parts.query)
                    raw_limit = query.get("limit", [""])[-1].strip()
                    try:
                        limit = int(raw_limit) if raw_limit else None
                    except ValueError:
                        self._reply(400, {"error": "limit must be an integer"})
                        return
                    self._reply(*server.handle_traces(limit))
                elif parts.path.startswith("/v1/traces/"):
                    trace_id = parts.path[len("/v1/traces/"):]
                    self._reply(*server.handle_trace(trace_id))
                else:
                    self._reply(404, {"error": f"unknown path {self.path!r}"})
            except Exception as error:  # noqa: BLE001 - surfaced as HTTP 500
                self._reply(500, {"error": f"{type(error).__name__}: {error}"})

        def do_POST(self) -> None:  # noqa: N802 - named for its method
            if self.path != "/v1/schedule":
                self._reject(404, f"unknown path {self.path!r}")
                return
            if not self.body:
                self._reject(400, "missing request body")
                return
            try:
                body = json.loads(self.body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                self._reply(400, {"error": f"invalid JSON body: {error}"})
                return
            if not isinstance(body, dict):
                self._reply(400, {"error": "request body must be a JSON object"})
                return
            self._reply(*server.handle_schedule(body))

    return Handler
