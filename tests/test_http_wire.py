"""The HTTP/1.1 subset both ends of ``repro.serving`` speak, checked on the
wire.

The server is driven by raw sockets (the stdlib ``http.client``-driven
tests in ``test_http_hit_cost.py`` stay its oracle); the client is driven
against a stdlib ``BaseHTTPRequestHandler`` stub and must read what
``http.client`` reads from it, and against raw-socket peers that
misbehave, where it must fail in a defined way and never hang.
"""

import email.utils
import http.client
import json
import os
import socket
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from helpers import fast_session
import repro
from repro.serving import ServingClient, ServingServer

JOIN_S = 10.0


@pytest.fixture(scope="module")
def server():
    session = fast_session()
    with ServingServer(session) as server:
        yield server
    session.close()


def _read_reply(sock, buffer: bytearray):
    """One reply off a raw socket: ``(head, body)``, ``None`` at EOF."""
    while b"\r\n\r\n" not in buffer:
        chunk = sock.recv(65536)
        if not chunk:
            return None
        buffer += chunk
    end = buffer.index(b"\r\n\r\n") + 4
    head = bytes(buffer[:end]).decode("latin-1")
    length = 0
    for line in head.split("\r\n"):
        if line.lower().startswith("content-length:"):
            length = int(line.split(":", 1)[1])
    while len(buffer) < end + length:
        chunk = sock.recv(65536)
        assert chunk, "reply body cut short"
        buffer += chunk
    body = bytes(buffer[end:end + length]).decode("utf-8")
    del buffer[:end + length]
    return head, body


def _at_eof(sock) -> bool:
    try:
        return sock.recv(65536) == b""
    except ConnectionResetError:
        return True


def _connect(server):
    sock = socket.create_connection((server.host, server.port), 5)
    sock.settimeout(5)
    return sock


# -- the server, on raw sockets --------------------------------------------------


class TestServerWire:
    def test_reply_head_is_the_status_line_and_four_headers(self, server):
        with _connect(server) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            head, body = _read_reply(sock, bytearray())
        lines = head.split("\r\n")
        assert lines[0] == "HTTP/1.1 200 OK"
        assert lines[1] == ("Server: repro-serving/0.1 Python/"
                            + sys.version.split()[0])
        assert lines[2].startswith("Date: ") and lines[2].endswith(" GMT")
        assert lines[3:] == ["Content-Type: application/json",
                             f"Content-Length: {len(body.encode())}", "", ""]
        assert json.loads(body)["status"] == "ok"

    def test_date_is_the_rfc_7231_form(self, server):
        for _ in range(5):       # retried across a second boundary
            before = email.utils.formatdate(usegmt=True)
            with _connect(server) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
                head, _ = _read_reply(sock, bytearray())
            if before == email.utils.formatdate(usegmt=True):
                assert f"\r\nDate: {before}\r\n" in head
                return
        pytest.fail("the clock never held still for a second")

    @pytest.mark.parametrize("now,date", [
        (1_000_000_000.5, "Sun, 09 Sep 2001 01:46:40 GMT"),
        (1_000_000_000.999, "Sun, 09 Sep 2001 01:46:40 GMT"),
        (1_000_000_001.0, "Sun, 09 Sep 2001 01:46:41 GMT")],
        ids=["mid-second", "end-of-second", "next-second"])
    def test_date_reads_the_clock_time_time_reads(self, server, monkeypatch,
                                                  now, date):
        # time.gmtime() with no argument reads C time(), which can lag
        # time.time() by a second just after a boundary; pinned here, it
        # would not read the pin at all.  The second is truncated, never
        # rounded up.
        monkeypatch.setattr(time, "time", lambda: now)
        with _connect(server) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            head, _ = _read_reply(sock, bytearray())
        assert f"\r\nDate: {date}\r\n" in head

    def test_expect_100_continue_then_the_reply(self, server):
        body = json.dumps({"program": "gemm:a"}).encode()
        with _connect(server) as sock:
            sock.sendall(b"POST /v1/schedule HTTP/1.1\r\nHost: x\r\n"
                         b"Expect: 100-continue\r\n"
                         b"Content-Length: %d\r\n\r\n" % len(body))
            interim = sock.recv(65536)
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            head, reply = _read_reply(sock, bytearray())
        assert head.startswith("HTTP/1.1 200 ")
        assert json.loads(reply)["runtime_s"] > 0

    def test_pipelined_requests_are_answered_in_order(self, server):
        with _connect(server) as sock:
            sock.sendall(b"GET /first HTTP/1.1\r\nHost: x\r\n\r\n"
                         b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                         b"GET /third HTTP/1.1\r\nHost: x\r\n\r\n")
            buffer = bytearray()
            replies = [_read_reply(sock, buffer) for _ in range(3)]
        assert [head.split(" ", 2)[1] for head, _ in replies] == \
            ["404", "200", "404"]
        assert "/first" in replies[0][1] and "/third" in replies[2][1]

    def test_header_names_are_case_insensitive(self, server):
        body = json.dumps({"program": "gemm:a"}).encode()
        with _connect(server) as sock:
            sock.sendall(b"POST /v1/schedule HTTP/1.1\r\nhOsT: x\r\n"
                         b"cOnTeNt-LeNgTh:%d\r\n\r\n" % len(body) + body)
            head, reply = _read_reply(sock, bytearray())
        assert head.startswith("HTTP/1.1 200 ")
        assert json.loads(reply)["request"]["program"] == "gemm:a"

    @pytest.mark.parametrize("request_bytes, status", [
        (b"GET /" + b"a" * 65536 + b" HTTP/1.1\r\n\r\n", 414),
        (b"GET /" + b"a" * 140000, 414),            # no line end at all
        (b"GET /healthz HTTP/1.1\r\n" + b"X-A: b\r\n" * 101 + b"\r\n", 431),
        (b"GET /healthz HTTP/1.1\r\nX-A: " + b"b" * 140000, 431),
        (b"PUT /v1/schedule HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", 501),
        (b"GET /healthz HTTP/2.0\r\n\r\n", 505),
        (b"GET /healthz\r\n\r\n", 400),
        (b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n", 400),
        (b"GET /healthz HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400),
    ], ids=["long-request-line", "endless-request-line", "101-headers",
            "endless-header", "put", "http-2", "no-version",
            "header-without-colon", "negative-length"])
    def test_a_rejected_request_is_answered_and_closed(
            self, server, request_bytes, status):
        with _connect(server) as sock:
            sock.sendall(request_bytes
                         + b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            head, body = _read_reply(sock, bytearray())
            assert head.startswith(f"HTTP/1.1 {status} ")
            assert "Connection: close\r\n" in head
            assert "error" in json.loads(body)
            assert _at_eof(sock)           # the request behind: unanswered

    @pytest.mark.parametrize("request_bytes", [
        b"GET /healthz HTTP/1.0\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
    ], ids=["http-1.0", "connection-close"])
    def test_the_client_may_end_the_connection(self, server, request_bytes):
        with _connect(server) as sock:
            sock.sendall(request_bytes)
            head, _ = _read_reply(sock, bytearray())
            assert head.startswith("HTTP/1.1 200 ")
            assert _at_eof(sock)

    def test_http_1_0_keep_alive_is_kept(self, server):
        with _connect(server) as sock:
            buffer = bytearray()
            for _ in range(2):
                sock.sendall(b"GET /healthz HTTP/1.0\r\n"
                             b"Connection: keep-alive\r\n\r\n")
                head, _ = _read_reply(sock, buffer)
                assert head.startswith("HTTP/1.1 200 ")


class TestSlowLoris:
    def test_a_trickled_head_is_a_408_within_the_timeout(self, monkeypatch):
        session = fast_session()
        try:
            with ServingServer(session) as server:
                monkeypatch.setattr(server._httpd.RequestHandlerClass,
                                    "timeout", 0.2)
                before = set(threading.enumerate())
                trickle = b"GET /healthz HTTP/1.1\r\nX-Slow: " + b"a" * 100
                started = time.monotonic()
                with _connect(server) as sock:
                    received = bytearray()
                    for byte in trickle:
                        sock.sendall(bytes([byte]))
                        sock.settimeout(0.05)
                        try:
                            received += sock.recv(65536)
                            break      # the server answered: stop sending
                        except socket.timeout:
                            pass
                    assert time.monotonic() - started < 1.0
                    sock.settimeout(1.0)
                    while True:
                        try:
                            chunk = sock.recv(65536)
                        except ConnectionResetError:
                            break      # bytes sent after its close: a reset
                        if not chunk:
                            break
                        received += chunk
                    elapsed = time.monotonic() - started
                text = received.decode("latin-1")
                assert text.startswith("HTTP/1.1 408 ")
                assert "Connection: close\r\n" in text
                assert elapsed < 1.0
                handlers = set(threading.enumerate()) - before
                for thread in handlers:
                    thread.join(JOIN_S)
                assert [t for t in handlers if t.is_alive()] == []
                assert not server._connections
        finally:
            session.close()

    def test_an_idle_connection_closes_quietly(self, server, monkeypatch):
        monkeypatch.setattr(server._httpd.RequestHandlerClass, "timeout", 0.2)
        with _connect(server) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert _read_reply(sock, bytearray())[0].startswith("HTTP/1.1 200")
            started = time.monotonic()
            assert sock.recv(65536) == b""          # no 408 for idling
            assert time.monotonic() - started < 2.0


# -- the client, against the stdlib as the reference -----------------------------


class _Stub(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    connects = []

    def setup(self):
        self.connects.append(threading.current_thread())
        super().setup()

    def log_message(self, *args):
        pass

    def _send(self, status, body, *headers, version=None):
        data = body.encode("utf-8")
        lines = [f"{version or self.protocol_version} {status} "
                 f"{self.responses[status][0]}",
                 f"Content-Length: {len(data)}", *headers]
        return "\r\n".join(lines + ["", ""]).encode("latin-1") + data

    def do_GET(self):  # noqa: N802 - stdlib handler API
        if self.path == "/ok":
            self.wfile.write(self._send(200, '{"ok": 1}'))
        elif self.path == "/close":
            self.wfile.write(self._send(200, '{"bye": 1}',
                                        "Connection: close"))
            self.close_connection = True
        elif self.path == "/http10":
            self.wfile.write(self._send(200, '{"old": 1}', version="HTTP/1.0"))
            self.close_connection = True
        elif self.path == "/segments":
            reply = self._send(200, json.dumps({"parts": list(range(50))}),
                               "Content-Type: application/json")
            for part in (reply[:10], reply[10:70], reply[70:]):
                self.wfile.write(part)
                time.sleep(0.05)
        elif self.path == "/busy":
            self.wfile.write(self._send(
                429, '{"error": "busy", "retry_after_s": 2.5}',
                "Retry-After: 3"))

    def do_POST(self):  # noqa: N802 - stdlib handler API
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.wfile.write(self._send(200, body.decode("utf-8")))


@pytest.fixture
def stub():
    _Stub.connects = []
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Stub)
    httpd.daemon_threads = True
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()
    httpd.server_close()
    thread.join(JOIN_S)


def _stdlib_exchange(httpd, method, path, body=None):
    host, port = httpd.server_address
    connection = http.client.HTTPConnection(host, port, timeout=5)
    try:
        data = json.dumps(body) if body is not None else None
        connection.request(method, path, data)
        reply = connection.getresponse()
        return reply.status, reply.read().decode("utf-8")
    finally:
        connection.close()


class TestClientAgainstTheStdlib:
    @pytest.mark.parametrize("method, path, body, kept", [
        ("GET", "/ok", None, True),
        ("POST", "/echo", {"program": "gemm:a", "priority": 3}, True),
        ("GET", "/close", None, False),
        ("GET", "/http10", None, False),
        ("GET", "/segments", None, True),
        ("GET", "/busy", None, True),
    ], ids=["keep-alive", "post", "connection-close", "http-1.0",
            "three-segments", "429"])
    def test_the_client_reads_what_http_client_reads(
            self, stub, method, path, body, kept):
        expected = _stdlib_exchange(stub, method, path, body)
        host, port = stub.server_address
        with ServingClient(f"http://{host}:{port}", timeout=5) as client:
            for _ in range(2):
                assert client._exchange(method, path, body) == expected
                assert len(client._idle) == (1 if kept else 0)
            # The stdlib's own exchange, then the client's two.
            assert len(_Stub.connects) == (2 if kept else 3)

    def test_a_429_payload_decodes(self, stub):
        host, port = stub.server_address
        with ServingClient(f"http://{host}:{port}", timeout=5) as client:
            status, payload = client.request("GET", "/busy")
            assert status == 429 and payload["retry_after_s"] == 2.5

    def test_keep_alive_over_many_exchanges(self, stub):
        host, port = stub.server_address
        with ServingClient(f"http://{host}:{port}", timeout=5) as client:
            for index in range(20):
                status, payload = client.request("POST", "/echo", {"n": index})
                assert (status, payload) == (200, {"n": index})
        assert len(_Stub.connects) == 1


# -- the client, against peers that misbehave ------------------------------------


def _serve_once(reply: bytes, then: str = "close"):
    """A listener that answers each connection's request with ``reply``,
    then closes (``then="close"``) or holds the connection (``"stall"``)."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.5)
    accepted, held = [], []

    def serve():
        while True:
            try:
                connection, _ = listener.accept()
            except OSError:
                return
            accepted.append(connection)
            request = b""
            while b"\r\n\r\n" not in request:
                chunk = connection.recv(65536)
                if not chunk:
                    break
                request += chunk
            connection.sendall(reply)
            if then == "close":
                connection.close()
            else:
                held.append(connection)
    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener, thread, accepted, held


class TestClientAgainstBrokenPeers:
    @pytest.mark.parametrize("reply, then, error", [
        (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{}",
         "close", ValueError),                          # no Content-Length
        (b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"cut",
         "close", OSError),                             # EOF mid-body
        (b"SSH-2.0-OpenSSH_9.6\r\n\r\n", "close", ValueError),
        (b"HTTP/1.1 OK\r\nContent-Length: 2\r\n\r\n{}", "close", ValueError),
        (b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"stall",
         "stall", OSError),                             # past the timeout
        (b"HTTP/1.1 200 OK\r\nContent-Len", "stall", OSError),
    ], ids=["no-content-length", "cut-short", "not-http", "no-status",
            "stalled-body", "stalled-head"])
    def test_a_defined_error_no_hang_no_reuse(self, reply, then, error):
        listener, thread, accepted, held = _serve_once(reply, then)
        port = listener.getsockname()[1]
        started = time.monotonic()
        try:
            with ServingClient(f"http://127.0.0.1:{port}",
                               timeout=0.3) as client:
                for attempt in range(2):
                    with pytest.raises(error):
                        client._exchange("GET", "/healthz")
                    assert client._idle == []
                    # Never retried: one connection per exchange.
                    assert len(accepted) == attempt + 1
        finally:
            listener.close()
            thread.join(JOIN_S)
            for connection in accepted + held:
                connection.close()
        assert time.monotonic() - started < 5.0

    def test_a_stale_kept_connection_is_retried_once(self):
        reply = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}"
        listener, thread, accepted, _ = _serve_once(reply, then="close")
        port = listener.getsockname()[1]
        try:
            with ServingClient(f"http://127.0.0.1:{port}", timeout=2) as client:
                # The peer closes after each reply without saying so: the
                # kept connection is stale on its next use.
                for index in range(3):
                    assert client._exchange("GET", "/x") == (200, "{}")
                    assert len(client._idle) == 1
                    assert len(accepted) == index + 1
        finally:
            listener.close()
            thread.join(JOIN_S)


# -- the import ------------------------------------------------------------------


def test_import_loads_no_stdlib_http_or_email_parser():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = ("import sys, repro.serving; print(sorted(m for m in "
            "('http.client', 'http.server', 'email.feedparser', 'email', "
            "'asyncio') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"
