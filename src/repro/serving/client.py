"""Stdlib HTTP client for the serving endpoint.

Speaks the same :class:`~repro.api.ScheduleRequest` /
:class:`~repro.api.ScheduleResponse` JSON round-trips as the server; the
demo, the smoke test, and the benchmark all drive traffic through it.
"""

from __future__ import annotations

import json
import socket
import time
from dataclasses import replace
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union
from urllib.parse import urlsplit

from ..api.types import ProgramLike, ScheduleRequest, ScheduleResponse

#: Longest message head, most header lines and largest body (16 MiB) read.
MAX_HEAD_BYTES, MAX_HEADERS, MAX_BODY_BYTES = 65536, 100, 16 * 1024 * 1024


class MessageError(ValueError):
    """A malformed HTTP message; a server answers it with ``status``."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def read_message(sock: socket.socket, buffer: bytearray,
                 timeout: Optional[float] = None
                 ) -> Tuple[str, Dict[str, str], bytearray]:
    """Read one HTTP/1.x message off ``sock``: ``(start line, fields lower-
    cased whole, body)``; ``buffer`` holds bytes received but not yet read.
    Given a ``timeout``, the message must be whole that long after its first
    byte.  ``Expect: 100-continue`` is answered before the body is read."""
    deadline = None  # set by the first byte received

    def receive() -> None:
        nonlocal deadline
        if timeout:  # until the first byte, the whole timeout
            wait = timeout if deadline is None else deadline - time.monotonic()
            if wait <= 0:
                raise socket.timeout("message not whole within its timeout")
            sock.settimeout(wait)
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionResetError("connection closed by the peer")
        buffer.extend(chunk)
        if deadline is None and timeout:
            deadline = time.monotonic() + timeout

    while (end := buffer.find(b"\r\n\r\n")) < 0 and len(buffer) <= MAX_HEAD_BYTES:
        receive()
    head = (buffer[:end] if end >= 0 else buffer).decode("latin-1")
    start_line, *fields = head.split("\r\n")
    if len(head) > MAX_HEAD_BYTES or len(fields) > MAX_HEADERS:
        raise MessageError(414 if len(start_line) > MAX_HEAD_BYTES else 431,
                           "message head too long")
    if not all(":" in field for field in fields):
        raise MessageError(400, f"bad header block {head[:200]!r}")
    headers = dict(field.lower().split(":", 1) for field in fields)
    length = headers.get("content-length", "0").strip()
    if not length.isdecimal() or int(length) > MAX_BODY_BYTES:
        raise MessageError(400, "malformed or oversized Content-Length")
    stop = end + 4 + int(length)
    if len(buffer) < stop and "100-continue" in headers.get("expect", ""):
        sock.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
    while len(buffer) < stop:
        receive()
    body, buffer[:stop] = buffer[end + 4:stop], b""
    return start_line, headers, body


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
        return {"error": f"HTTP Error {status}: {text[:200]}"}


class ServingClient:
    """A thin blocking client: ``schedule`` / ``report`` / ``health``.

    Connections are kept alive in an idle list (``list.pop`` / ``append``
    are atomic), so one client may be shared across threads; ``close()`` or
    leaving a ``with`` block drops them, and the next call reconnects.
    """

    def __init__(self, base_url: str, timeout: float = 60.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._idle: List[socket.socket] = []
        location = urlsplit("//" + self.base_url.split("://", 1)[-1])
        self._address = (location.hostname, location.port or 80)
        self._host, self._prefix = location.netloc, location.path

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
        that touches a socket; the request is one send.  The server closes
        connections idle for 30 s, so a reused one may be stale: when it
        fails before any byte of a reply, the exchange is retried once, on
        a fresh connection."""
        data = json.dumps(body).encode("utf-8") if body is not None else b""
        fields = (f"Content-Type: application/json\r\n"
                  f"Content-Length: {len(data)}\r\n" if data else "")
        message = (f"{method} {self._prefix}{path} HTTP/1.1\r\nHost: "
                   f"{self._host}\r\n{fields}\r\n").encode("latin-1") + data
        try:
            connection, reused = self._idle.pop(), True
        except IndexError:
            connection, reused = None, False
        while True:
            if connection is None:
                connection = socket.create_connection(self._address,
                                                      self.timeout)
                connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            unread = bytearray()
            try:
                connection.sendall(message)
                start_line, headers, raw = read_message(connection, unread)
                if start_line[:7] != "HTTP/1." or "content-length" not in headers:
                    raise ValueError(f"not an HTTP/1.x reply with a "
                                     f"Content-Length: {start_line!r}")
                status, text = int(start_line[9:12]), raw.decode("utf-8")
            except (OSError, ValueError) as error:
                connection.close()
                if reused and not unread and isinstance(error, ConnectionError):
                    connection, reused = None, False
                    continue
                raise
            said = headers.get("connection", "").strip()
            if said == "close" or unread or (start_line[:8] == "HTTP/1.0"
                                             and said != "keep-alive"):
                connection.close()
            else:
                self._idle.append(connection)
            return status, text

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

    def metrics(self) -> str:
        """Scrape ``GET /metrics``: the Prometheus text exposition body."""
        return self._checked("GET", "/metrics")

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
