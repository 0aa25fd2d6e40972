"""Stdlib HTTP client for the serving endpoint.

Speaks the same :class:`~repro.api.ScheduleRequest` /
:class:`~repro.api.ScheduleResponse` JSON round-trips as the server; the
demo, the smoke test, and the benchmark all drive traffic through it.
"""

from __future__ import annotations

import http.client
import json
from dataclasses import replace
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..api.types import ProgramLike, ScheduleRequest, ScheduleResponse


class ServingError(RuntimeError):
    """A non-2xx response from the serving endpoint."""

    def __init__(self, status: int, payload: Dict[str, Any]):
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = payload


def _decoded(status: int, text: str) -> Dict[str, Any]:
    try:
        return json.loads(text)
    except ValueError:
        if status == 200:
            raise
        reason = http.client.responses.get(status, "")
        return {"error": f"HTTP Error {status}: {reason}"}


class ServingClient:
    """A thin blocking client: ``schedule`` / ``report`` / ``health``.

    Connections are kept alive in an idle list (``list.pop`` / ``append``
    are atomic), so one client may be shared across threads; ``close()`` or
    leaving a ``with`` block drops them, and the next call reconnects.
    """

    def __init__(self, base_url: str, timeout: float = 60.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._idle: List[http.client.HTTPConnection] = []

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    # -- raw transport -----------------------------------------------------------

    def _exchange(self, method: str, path: str,
                  body: Optional[Dict[str, Any]] = None) -> Tuple[int, str]:
        """One HTTP exchange, ``(status, reply text)`` — the one function
        that touches a socket.  The server closes connections idle for 30 s,
        so a reused one may be stale: when it fails before any byte of a
        reply, the exchange is retried once, on a fresh connection."""
        data = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        netloc, slash, prefix = self.base_url.split("://", 1)[-1].partition("/")
        try:
            connection = self._idle.pop()
        except IndexError:
            connection = http.client.HTTPConnection(netloc,
                                                    timeout=self.timeout)
        while True:
            # request() connects, with TCP_NODELAY, when there is no socket.
            reused, reply = connection.sock is not None, None
            try:
                connection.request(method, slash + prefix + path, data, headers)
                reply = connection.getresponse()
                raw = reply.read()
            except (OSError, http.client.HTTPException) as error:
                connection.close()
                if reused and reply is None and isinstance(error,
                                                           ConnectionError):
                    continue
                raise
            # Without its socket after a "Connection: close" reply.
            self._idle.append(connection)
            return reply.status, raw.decode("utf-8")

    def request(self, method: str, path: str,
                body: Optional[Dict[str, Any]] = None
                ) -> Tuple[int, Dict[str, Any]]:
        """One HTTP exchange; returns ``(status, decoded JSON payload)``."""
        status, text = self._exchange(method, path, body)
        return status, _decoded(status, text)

    def _checked(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None) -> str:
        """One exchange that must answer 200; returns the reply text."""
        status, text = self._exchange(method, path, body)
        if status != 200:
            raise ServingError(status, _decoded(status, text))
        return text

    # -- the API -----------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return json.loads(self._checked("GET", "/healthz"))

    def report(self) -> Dict[str, Any]:
        return json.loads(self._checked("GET", "/v1/report"))

    def alerts(self) -> Dict[str, Any]:
        """``GET /alerts``: every rule's evaluated state + firing subset."""
        return json.loads(self._checked("GET", "/alerts"))

    def traces(self, limit: Optional[int] = None) -> Dict[str, Any]:
        """``GET /v1/traces``: newest-first trace summaries."""
        path = "/v1/traces" + (f"?limit={int(limit)}" if limit is not None
                               else "")
        return json.loads(self._checked("GET", path))

    def trace(self, trace_id: str) -> Dict[str, Any]:
        """``GET /v1/traces/<id>``: one trace's full span tree."""
        return json.loads(self._checked("GET", f"/v1/traces/{trace_id}"))

    def metrics(self, include_workers: bool = False) -> str:
        """Scrape ``GET /metrics``: the Prometheus text exposition body.

        ``include_workers`` merges every worker process's registry into the
        scrape when the server runs a pool (slower — one round trip to
        every worker).
        """
        return self._checked(
            "GET", "/metrics" + ("?workers=1" if include_workers else ""))

    def schedule(self, program: Union[ScheduleRequest, ProgramLike],
                 parameters: Optional[Mapping[str, int]] = None,
                 scheduler: Optional[str] = None,
                 threads: Optional[int] = None,
                 priority: Optional[int] = None,
                 client: Optional[str] = None) -> ScheduleResponse:
        """Schedule one program through the service.

        ``priority`` (0 most urgent .. 9) and ``client`` (an opaque identity
        the server's admission control may rate-limit on) are serving-layer
        hints; a saturated server answers 429, raised here as a
        :class:`ServingError` with ``status == 429``.  When a ready
        :class:`ScheduleRequest` is passed, explicit ``priority=`` /
        ``client=`` arguments override its fields (on a copy).
        """
        if isinstance(program, ScheduleRequest):
            overrides = {}
            if priority is not None:
                overrides["priority"] = priority
            if client is not None:
                overrides["client"] = client
            request = replace(program, **overrides) if overrides else program
        else:
            request = ScheduleRequest(program=program, parameters=parameters,
                                      scheduler=scheduler, threads=threads,
                                      client=client)
            if priority is not None:
                request.priority = priority
        # Backed by the reply text: fields decode when they are read.
        return ScheduleResponse.from_json(
            self._checked("POST", "/v1/schedule", request.to_dict()))
