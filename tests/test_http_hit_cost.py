"""An HTTP hit costs what its bytes cost — identically.

One keep-alive connection per client instead of one per request, one socket
write per reply, a response whose scalars are read from the tail of its text
and whose other fields decode when they are read, a response-cache store
that splits the response's own text, and expression leaves decoded through
the one interned leaf table.  None of that may change an answer, so the
checks are ``==`` against what the code did before — the all-at-once
decode, the head/tail re-encode of a stored response and the
construct-then-intern ``expr_from_dict``, all kept below as the
specification — and *counts* (connects, handler threads, socket writes,
``program_from_dict`` / ``program_to_dict`` calls, decoded lengths,
``Const``/``Sym`` constructions) rather than timings.
"""

import dataclasses
import http.client
import itertools
import json
import socket
import sys
import threading
import time

import pytest

from helpers import fast_session
from repro.api import ScheduleRequest, ScheduleResponse, program_content_hash
from repro.api import types as api_types
from repro.api.cache import ResponseEntry
from repro.experiments.figure1 import LOOP_ORDERS, build_gemm_order
from repro.fuzz import generate_program
from repro.ir import canonical, nodes, serialization
from repro.ir.serialization import (expr_from_dict, expr_to_dict,
                                    program_from_dict, program_to_dict)
from repro.ir.symbols import (Add, Call, Const, FloorDiv, Max, Min, Mod, Mul,
                              Read, Sym, const, sym)
from repro.serving import (AdmissionError, ServingClient, ServingError,
                           ServingServer)
from repro.serving import http as http_module
from repro.workloads.registry import benchmark, benchmark_names

JOIN_S = 60.0
NODELAY = (socket.IPPROTO_TCP, socket.TCP_NODELAY)

SCALARS = ("scheduler", "runtime_s", "normalized", "input_hash",
           "canonical_hash", "from_cache", "normalization_cache_hit",
           "trace_id")
#: What a text-backed response holds once its whole text was parsed or an
#: IR-bearing field was built.
DECODED = {"_payload", "request", "program", "result"}
TRACE = {"trace_id": "0123456789abcdef0123456789abcdef",
         "span_id": "fedcba9876543210"}


# -- the specification: the decodes as they were ----------------------------------


def _spec_decode_all(text: str) -> ScheduleResponse:
    """What the first field read of a text-backed response used to do."""
    return ScheduleResponse.from_dict(json.loads(text))


def _spec_response_entry(response: ScheduleResponse) -> ResponseEntry:
    """What ``Session.store_response`` stored before: the response's dict
    without its trace id, re-encoded as a head and a tail around the echo."""
    data = response.to_dict()
    data.pop("trace_id", None)
    keys = list(data)
    split = keys.index("request")
    head = json.dumps({name: data[name] for name in keys[:split]})
    tail = json.dumps({name: data[name] for name in keys[split + 1:]})
    return ResponseEntry(head[:-1] + ', "request": ', ", " + tail[1:])


#: The table decoded expressions were interned in before every composite was
#: hash-consed where it is built: keyed by the canonical fragment.
_SPEC_INTERN = {}


def _spec_intern(expr):
    return _SPEC_INTERN.setdefault(canonical.expr_fragment(expr), expr)


def _spec_expr_from_dict(data):
    """``expr_from_dict`` as it was: construct every node, leaves included,
    then look its canonical fragment up in a fragment-keyed table."""
    kind = data["kind"]
    if kind == "const":
        built = Const(data["value"])
    elif kind == "sym":
        built = Sym(data["name"])
    elif kind == "add":
        built = Add.make([_spec_expr_from_dict(t) for t in data["terms"]])
    elif kind == "mul":
        built = Mul.make([_spec_expr_from_dict(f) for f in data["factors"]])
    elif kind in ("floordiv", "mod"):
        built = (FloorDiv if kind == "floordiv" else Mod).make(
            _spec_expr_from_dict(data["numerator"]),
            _spec_expr_from_dict(data["denominator"]))
    elif kind in ("min", "max"):
        built = (Min if kind == "min" else Max).make(
            [_spec_expr_from_dict(a) for a in data["args"]])
    elif kind == "read":
        built = Read(data["array"],
                     [_spec_expr_from_dict(i) for i in data["indices"]])
    elif kind == "call":
        built = Call(data["func"],
                     [_spec_expr_from_dict(a) for a in data["args"]])
    else:
        raise ValueError(f"unknown expression kind {kind!r}")
    return _spec_intern(built)


def _spec_program_from_dict(data, monkeypatch):
    """``program_from_dict`` over the old expression decode."""
    with monkeypatch.context() as patch:
        patch.setattr(serialization, "expr_from_dict", _spec_expr_from_dict)
        return program_from_dict(data)


# -- inputs -----------------------------------------------------------------------


def _requests():
    """All 54 registry requests, the six GEMM orders as IR, 24 fuzz programs."""
    named = [f"{name}:{variant}" for name in benchmark_names()
             for variant in ("a", "b", "npbench")]
    named += [f"fuzz:small-{index}" for index in range(24)]
    requests = [ScheduleRequest(program=label) for label in named]
    sizes = benchmark("gemm").sizes("large")
    requests += [ScheduleRequest(program=build_gemm_order(order),
                                 parameters=dict(sizes))
                 for order in LOOP_ORDERS]
    return requests


#: Labels, clients and program names carrying the keys a response text is
#: split at, quotes, backslashes and non-ASCII text.
ADVERSARIAL = ('"request": ', '"runtime_s": ',
               ', "request": {"program": "gemm:a"}',
               '}, "runtime_s": 1.0, "normalized": true}', 'x", ', 'a\\',
               '\\"', 'ünïcødé “quoted” 日本語', '\n\t ')


def _adversarial_requests():
    """Each adversarial string as label and client of a registry request,
    and as the name of a GEMM program sent as IR (the echo carries it)."""
    sizes = dict(benchmark("gemm").sizes("large"))
    requests = []
    for text in ADVERSARIAL:
        program = build_gemm_order(LOOP_ORDERS[0])
        program.name = text
        requests += [ScheduleRequest(program="gemm:a", label=text, client=text),
                     ScheduleRequest(program=program, parameters=sizes,
                                     label=text)]
    return requests


def _assert_scalars_first(response: ScheduleResponse) -> None:
    """The eight scalars of an untouched text-backed response, read first,
    equal the eager decode's, and nothing IR-bearing or whole was decoded."""
    eager = _spec_decode_all(response.to_json())
    assert {name: getattr(response, name) for name in SCALARS} == \
        {name: getattr(eager, name) for name in SCALARS}
    assert not DECODED & set(vars(response))


@pytest.fixture(scope="module")
def served():
    session = fast_session()
    with ServingServer(session) as server, \
            ServingClient(server.address) as client:
        yield server, client
    session.close()


@pytest.fixture(scope="module")
def replies(served):
    """``(client response, server reply text)`` of every request, warm."""
    _, client = served
    requests = _requests()
    for request in requests:
        client.schedule(request)
    responses = [client.schedule(request) for request in requests]
    assert len(responses) == 54 + 24 + 6
    return [(response, response.to_json()) for response in responses]


def _warm_texts(replies):
    """The reply texts of the 36 registry ``:a`` / ``:b`` requests."""
    texts = [text for (_, text), request in zip(replies, _requests())
             if isinstance(request.program, str)
             and request.program.endswith((":a", ":b"))]
    assert len(texts) == 36
    return texts


def _view(response: ScheduleResponse, name: str):
    """One field of a response in a form ``==`` compares by content."""
    value = getattr(response, name)
    if name == "program":
        return program_content_hash(value), program_to_dict(value)
    return value.to_dict() if name in ("result", "request") else value


# -- oracle: staged == eager ------------------------------------------------------


class TestStagedDecodeEqualsEager:
    GROUPS = ("program", "result", "request", "scalars")

    def test_every_field_in_every_read_order(self, replies):
        for response, text in replies:
            payload = json.loads(text)
            eager = _spec_decode_all(text)
            expected = {name: _view(eager, name)
                        for name in SCALARS + self.GROUPS[:3]}
            orders = list(itertools.permutations(self.GROUPS))
            # The client's own response takes the first order, fresh
            # text-backed ones (what the client builds) the others.
            staged = [response] + [ScheduleResponse.from_json(text)
                                   for _ in orders[1:]]
            for candidate, order in zip(staged, orders):
                assert candidate.to_json() is text
                assert candidate.to_dict() == payload
                for group in order:
                    for name in (SCALARS if group == "scalars" else (group,)):
                        assert _view(candidate, name) == expected[name], \
                            (payload["request"]["program"], order, name)
                    assert candidate.to_json() is text
                    assert candidate.to_dict() == payload
                assert candidate.program is candidate.result.program

    def test_client_response_is_backed_by_the_reply_text(self, served):
        server, client = served
        status, payload = client.request(
            "POST", "/v1/schedule", {"program": "gemm:a"})
        response = client.schedule("gemm:a")
        assert status == 200 and type(response) is ScheduleResponse
        served_dict = json.loads(response.to_json())
        for reply in (payload, served_dict):       # the per-request parts
            reply.pop("trace_id", None)
            reply["request"].pop("trace", None)
        assert served_dict == payload

    def test_half_decoded_response_is_a_whole_dataclass(self, replies):
        _, text = replies[0]
        response = ScheduleResponse.from_json(text)
        assert response.runtime_s > 0          # scalars only
        assert "program" not in vars(response)
        assert response == response
        clone = dataclasses.replace(response, runtime_s=1.5)
        assert clone.runtime_s == 1.5 and clone.to_dict()["runtime_s"] == 1.5
        assert clone.program is response.program
        assert clone.canonical_hash == response.canonical_hash
        other = ScheduleResponse.from_json(text)
        assert other.scheduler == response.scheduler
        assert "canonical_hash=" in repr(other)
        assert repr(other).startswith("ScheduleResponse(request=")
        eager = _spec_decode_all(text)
        assert [f.name for f in dataclasses.fields(other)] == \
            [f.name for f in dataclasses.fields(eager)]
        with pytest.raises(AttributeError):
            other.no_such_field

    def test_malformed_program_raises_where_it_is_read(self, replies):
        _, text = replies[0]
        payload = json.loads(text)
        del payload["program"]["arrays"]
        broken = json.dumps(payload)
        with pytest.raises(Exception) as eager_error:
            _spec_decode_all(broken)
        response = ScheduleResponse.from_json(broken)
        assert response.canonical_hash == payload["canonical_hash"]
        assert response.request.program == payload["request"]["program"]
        for name in ("program", "result", "program"):
            with pytest.raises(type(eager_error.value)):
                getattr(response, name)
        # A missing scalar is eager's KeyError too, at the first read.
        del payload["scheduler"]
        with pytest.raises(KeyError):
            ScheduleResponse.from_json(json.dumps(payload)).runtime_s

    def test_scalars_read_first_equal_eager_on_every_lane(self, served,
                                                          replies):
        server, client = served
        session = server.session
        assert session.tracer.enabled
        for index, request in enumerate(_requests() + _adversarial_requests()):
            _assert_scalars_first(client.schedule(request))
            traced = dataclasses.replace(request, trace=TRACE)
            fast = session.lookup_response(request)
            # Every registry request and GEMM order is stored by now.
            assert fast is not None or index >= len(replies)
            if fast is not None:
                _assert_scalars_first(fast)
            for slow in (session.schedule(request), session.schedule(traced)):
                assert slow.from_cache and slow._json is None
                _assert_scalars_first(
                    ScheduleResponse.from_json(slow.to_json()))
            assert ScheduleResponse.from_json(
                session.schedule(traced).to_json()).trace_id == TRACE["trace_id"]

    def test_other_layouts_are_parsed_whole(self, replies):
        for _, text in replies[::6]:
            payload = json.loads(text)
            moved = {"scheduler": payload["scheduler"],
                     "canonical_hash": payload["canonical_hash"]}
            moved.update(payload)          # canonical_hash before the echo
            extra = dict(payload, extra_key=1)
            layouts = [json.dumps(payload, separators=(",", ":")),
                       json.dumps(payload, sort_keys=True),
                       json.dumps(payload, indent=1),
                       json.dumps(moved), json.dumps(extra)]
            for other in layouts:
                response = ScheduleResponse.from_json(other)
                eager = _spec_decode_all(other)
                for name in SCALARS:
                    assert getattr(response, name) == getattr(eager, name)
                assert "_payload" in vars(response)
                assert response.to_json() is other

    def test_adversarial_scheduler_names_decode_or_fall_back(self, replies):
        _, text = replies[0]
        payload = json.loads(text)
        for name in ADVERSARIAL + ("", "daisy"):
            payload["scheduler"] = name
            other = json.dumps(payload)
            response = ScheduleResponse.from_json(other)
            eager = _spec_decode_all(other)
            for field in SCALARS:
                assert getattr(response, field) == getattr(eager, field)
            assert response.program.name == eager.program.name


# -- oracle: one leaf table -------------------------------------------------------


LEAVES = [0, 1, -1, 7, 2.0, -0.0, 0.5, -3.25, 1e300, 10 ** 30, -(10 ** 25),
          True, False]


class TestOneLeafTable:
    def test_leaves_are_the_interned_constructors(self):
        for name in ("i", "N", "i0", "a_rather_long_parameter_name"):
            assert expr_from_dict({"kind": "sym", "name": name}) is sym(name)
        for value in LEAVES:
            data = {"kind": "const", "value": value}
            decoded = expr_from_dict(data)
            if not isinstance(value, bool):
                assert decoded is const(value), value
            old = _spec_expr_from_dict(data)
            assert decoded == old and type(decoded.value) is type(old.value)
            assert expr_to_dict(decoded) == expr_to_dict(old)
            assert json.dumps(expr_to_dict(decoded)) == \
                json.dumps(expr_to_dict(old))
        for bad in ({"kind": "sym", "name": ""}, {"kind": "sym", "name": 3},
                    {"kind": "sym", "name": ["i"]}, {"kind": "nope"}):
            with pytest.raises(ValueError):
                expr_from_dict(bad)
            with pytest.raises(ValueError):
                _spec_expr_from_dict(bad)

    def test_composites_over_every_leaf_decode_as_before(self):
        leaf = [{"kind": "const", "value": value} for value in LEAVES]
        leaf += [{"kind": "sym", "name": name} for name in ("i", "j", "N")]
        composites = []
        for left, right in itertools.product(leaf, repeat=2):
            composites += [
                {"kind": "add", "terms": [left, right]},
                {"kind": "mul", "factors": [left, right]},
                {"kind": "min", "args": [left, right]},
                {"kind": "max", "args": [right, left]},
                {"kind": "read", "array": "A", "indices": [left, right]},
                {"kind": "call", "func": "div", "args": [left, right]},
            ]
            if right["kind"] == "sym":
                composites += [
                    {"kind": "floordiv", "numerator": left,
                     "denominator": right},
                    {"kind": "mod", "numerator": left, "denominator": right}]
        for data in composites:
            new, old = expr_from_dict(data), _spec_expr_from_dict(data)
            assert new == old and expr_to_dict(new) == expr_to_dict(old), data
            assert json.dumps(expr_to_dict(new)) == \
                json.dumps(expr_to_dict(old)), data

    def test_programs_decode_as_before(self, replies, monkeypatch):
        programs = [json.loads(text)["program"] for _, text in replies]
        programs += [program_to_dict(generate_program(seed).program)
                     for seed in range(300)]
        for data in programs:
            new = program_from_dict(data)
            old = _spec_program_from_dict(data, monkeypatch)
            assert program_to_dict(new) == program_to_dict(old) == data
            assert program_content_hash(new) == program_content_hash(old)

    def test_eager_decode_builds_no_leaf_twice(self, replies, monkeypatch):
        payloads = [json.loads(text) for text in _warm_texts(replies)]
        for payload in payloads:
            ScheduleResponse.from_dict(payload)  # the warm-up decode
        counts = {"Const": 0, "Sym": 0, "leaf fragments": 0}

        def counting_init(cls):
            init = cls.__init__

            def counted(self, value):
                counts[cls.__name__] += 1
                init(self, value)
            monkeypatch.setattr(cls, "__init__", counted)

        counting_init(Const)
        counting_init(Sym)
        fragment = canonical.expr_fragment

        def counted_fragment(expr):
            # A leaf without a memoized fragment is one json.dumps.
            if isinstance(expr, (Const, Sym)) and not hasattr(expr, "_frag"):
                counts["leaf fragments"] += 1
            return fragment(expr)
        monkeypatch.setattr(canonical, "expr_fragment", counted_fragment)

        leaves = sum(text.count('"kind": "const"') + text.count('"kind": "sym"')
                     for text in _warm_texts(replies))
        for payload in payloads:
            ScheduleResponse.from_dict(payload)
        assert leaves > 2000                     # one of each per leaf before
        assert counts == {"Const": 0, "Sym": 0, "leaf fragments": 0}


# -- counted: what a hit costs ----------------------------------------------------


@pytest.fixture
def counted_sockets(served, monkeypatch):
    """Counts connects (as the server accepts them), handler threads and
    ``sendall`` calls per side."""
    server, client = served
    client.close()
    counts = {"connects": 0, "handler threads": set(), "server sends": 0,
              "client sends": 0}
    handler = server._httpd.RequestHandlerClass
    setup = handler.setup

    def counted_setup(self):
        counts["connects"] += 1
        counts["handler threads"].add(threading.current_thread())
        setup(self)
    monkeypatch.setattr(handler, "setup", counted_setup)

    sendall = socket.socket.sendall

    def counted_sendall(self, data, *flags):
        # Only this server and its clients send in these tests.
        accepted = self.getsockname()[1] == server.port
        counts["server sends" if accepted else "client sends"] += 1
        return sendall(self, data, *flags)
    monkeypatch.setattr(socket.socket, "sendall", counted_sendall)
    return counts


class TestCountedHit:
    def test_200_calls_one_connection_one_thread_one_write_each(
            self, served, replies, counted_sockets):
        server, client = served
        for index in range(200):
            response = client.schedule("gemm:a" if index % 2 else "atax:b")
            assert response.runtime_s > 0
        counts = counted_sockets
        assert counts["connects"] == 1                     # was 200
        assert len(counts["handler threads"]) == 1         # was 200
        assert counts["server sends"] == 200               # one per reply
        assert counts["client sends"] == 200               # was <= 400
        (idle,) = client._idle
        assert idle.getsockopt(*NODELAY) == 1
        deadline = time.monotonic() + 5.0   # the fixture's close() is seen
        while len(server._connections) > 1 and time.monotonic() < deadline:
            time.sleep(0.01)                # by its handler asynchronously
        (accepted,) = server._connections
        assert accepted.getsockopt(*NODELAY) == 1

    def test_large_replies_do_not_stall_on_delayed_ack(self, served, replies):
        """Nagle on the server plus the client's delayed ACK held every
        kept-alive exchange ~40 ms (a split header/body write, or a reply
        over a buffered writer's 8 KiB): 30 of them took >= 1.3 s."""
        _, client = served
        request, size = max(
            ((request, len(text))
             for request, (_, text) in zip(_requests(), replies)),
            key=lambda pair: pair[1])
        assert size > 16 * 1024
        # Every repeat is a fast-lane hit, whose reply carries no trace id.
        size = len(client.schedule(request).to_json())
        started = time.perf_counter()
        for _ in range(30):
            assert len(client.schedule(request).to_json()) == size
        assert time.perf_counter() - started < 0.6

    def test_one_client_shared_by_eight_threads(self, served, replies,
                                                counted_sockets):
        _, client = served
        requests = _requests()[:50]
        expected = [(response.canonical_hash, response.runtime_s)
                    for response, _ in replies[:50]]
        answers = [None] * 8
        barrier = threading.Barrier(8)

        def worker(slot):
            barrier.wait(JOIN_S)
            got = []
            for request in requests:
                response = client.schedule(request)
                got.append((response.canonical_hash, response.runtime_s))
            answers[slot] = got

        threads = [threading.Thread(target=worker, args=(slot,))
                   for slot in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(JOIN_S)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert answers == [expected] * 8
        assert 1 <= counted_sockets["connects"] <= 8
        assert len(client._idle) == counted_sockets["connects"]

    def test_the_ir_is_decoded_when_it_is_read(self, served, replies,
                                               monkeypatch):
        _, client = served
        counts = {"program_from_dict": 0, "Loop": 0}
        decode, init = serialization.program_from_dict, nodes.Loop.__init__

        def counted_decode(data):
            counts["program_from_dict"] += 1
            return decode(data)

        def counted_init(self, *args, **kwargs):
            counts["Loop"] += 1
            init(self, *args, **kwargs)
        monkeypatch.setattr(serialization, "program_from_dict", counted_decode)
        monkeypatch.setattr(nodes.Loop, "__init__", counted_init)

        response = client.schedule("gemm:a")
        assert response.canonical_hash and response.runtime_s > 0
        assert response.from_cache and response.request.program == "gemm:a"
        assert counts == {"program_from_dict": 0, "Loop": 0}
        assert response.program.body
        assert counts["program_from_dict"] == 1 and counts["Loop"] > 0
        loops = counts["Loop"]
        assert response.program is response.result.program
        assert response.program.body and response.result.nests
        assert counts == {"program_from_dict": 1, "Loop": loops}

    def test_eight_scalars_decode_only_the_tail(self, replies, monkeypatch):
        counts = {"program_from_dict": 0, "Loop": 0}
        decoded = []                # the length of every string decoded
        decode, init = serialization.program_from_dict, nodes.Loop.__init__
        raw_decode = json.JSONDecoder.raw_decode

        def counted_decode(data):
            counts["program_from_dict"] += 1
            return decode(data)

        def counted_init(self, *args, **kwargs):
            counts["Loop"] += 1
            init(self, *args, **kwargs)

        def recorded_raw_decode(self, s, idx=0):
            decoded.append(len(s) - idx)
            return raw_decode(self, s, idx)
        monkeypatch.setattr(serialization, "program_from_dict", counted_decode)
        monkeypatch.setattr(nodes.Loop, "__init__", counted_init)
        monkeypatch.setattr(json.JSONDecoder, "raw_decode",
                            recorded_raw_decode)

        for _, text in replies:
            response = ScheduleResponse.from_json(text)
            for name in SCALARS:
                getattr(response, name)
            assert not DECODED & set(vars(response))
            tail = text[text.rindex(', "runtime_s": '):]
            assert len(decoded) == 2 and max(decoded) <= len(tail) < 400
            decoded.clear()
        assert counts == {"program_from_dict": 0, "Loop": 0}
        # `request` parses the whole text; `program` reuses that parse.
        response.request
        response.program
        assert decoded == [len(text)] and "_payload" in vars(response)


# -- the response-cache store splits the response's own text ----------------------


class TestStoreResponse:
    def _recording(self, session, monkeypatch):
        stored = []
        store = session.cache.store_response

        def recorded(key, entry):
            stored.append(entry)
            store(key, entry)
        monkeypatch.setattr(session.cache, "store_response", recorded)
        return stored

    def test_entries_equal_the_head_tail_construction(self, served, replies,
                                                      monkeypatch):
        server, _ = served
        session = server.session
        stored = self._recording(session, monkeypatch)
        for request in _requests() + _adversarial_requests():
            traced = dataclasses.replace(request, trace=TRACE)
            entries = []
            for served_as in (request, traced):
                response = session.schedule(served_as)
                assert response.from_cache and response.normalization_cache_hit
                assert (response.trace_id is None) == (served_as is request)
                # Field-backed (computed) and text-backed (a cached reply).
                for candidate in (response,
                                  ScheduleResponse.from_json(response.to_json())):
                    session.store_response(served_as, candidate)
                    assert stored[-1] == _spec_response_entry(candidate)
                    entries.append(stored[-1])
            # The echo and the trace id are not part of an entry.
            assert entries == entries[:1] * 4
            entry = entries[0]
            assert entry.before + json.dumps(request.to_dict()) + entry.after \
                == session.schedule(request).to_json()

    def test_an_echo_key_seen_twice_is_not_stored(self, served, replies,
                                                  monkeypatch):
        server, _ = served
        session = server.session
        stored = self._recording(session, monkeypatch)
        response, text = replies[0]
        start, end = api_types.echo_span(text)
        assert text[start:end] == json.dumps(json.loads(text)["request"])
        # Any object may nest in IR (library-call metadata): here a copy
        # of the echo key inside the echo itself.
        payload = json.loads(text)
        payload["request"]["parameters"] = {
            "N": 1, "request": {"program": "gemm:a"}}
        nested = ScheduleResponse.from_json(json.dumps(payload))
        assert api_types.echo_span(nested.to_json()) is None
        _assert_scalars_first(nested)               # the tail is still read
        assert nested.from_cache and nested.normalization_cache_hit
        session.store_response(response.request, nested)
        assert stored == []

    def test_only_what_is_stored_is_encoded(self, monkeypatch):
        session = fast_session()
        counts = {"program_to_dict": 0}

        def counted(program):
            counts["program_to_dict"] += 1
            return program_to_dict(program)
        monkeypatch.setattr(serialization, "program_to_dict", counted)
        monkeypatch.setattr(api_types, "program_to_dict", counted)
        stored = self._recording(session, monkeypatch)
        # Cold, then a variant whose schedule (not normalization) is cached.
        for name in ("gemm:a", "gemm:b", "fuzz:small-0"):
            response = session.schedule(name)
            assert not (response.from_cache
                        and response.normalization_cache_hit)
            counts["program_to_dict"] = 0
            session.store_response(response.request, response)
            assert counts == {"program_to_dict": 0} and stored == []
        warm = session.schedule("gemm:a")
        counts["program_to_dict"] = 0
        session.store_response(warm.request, warm)
        assert counts == {"program_to_dict": 1} and len(stored) == 1
        session.close()


# -- protocol: what the server does on one connection -----------------------------


def _raw_exchange(server, head: bytes, body: bytes = b""):
    """Send raw bytes, read to EOF: ``(reply text, closed by the server)``."""
    with socket.create_connection((server.host, server.port), 5) as sock:
        sock.sendall(head + body)
        sock.settimeout(3)
        received = b""
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    return received.decode("latin-1"), True
                received += chunk
        except socket.timeout:
            return received.decode("latin-1"), False


def _post(path: str, length, extra: str = "") -> bytes:
    return (f"POST {path} HTTP/1.1\r\nHost: test\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {length}\r\n{extra}\r\n").encode("latin-1")


class TestKeepAliveProtocol:
    def test_two_requests_and_a_consumed_bad_body_on_one_connection(
            self, served):
        server, _ = served
        connection = http.client.HTTPConnection(server.host, server.port,
                                                timeout=10)
        body = json.dumps({"program": "gemm:a"})
        headers = {"Content-Type": "application/json"}
        try:
            statuses = []
            for payload in (body, body, "{not json", body, "[1, 2]", body):
                connection.request("POST", "/v1/schedule", payload, headers)
                reply = connection.getresponse()
                decoded = json.loads(reply.read())
                statuses.append(reply.status)
                assert not reply.will_close
                assert ("error" in decoded) == (reply.status != 200)
            assert statuses == [200, 200, 400, 200, 400, 200]
            sock = connection.sock
            connection.request("GET", "/healthz")
            assert connection.getresponse().read()
            assert connection.sock is sock          # never reconnected
        finally:
            connection.close()

    @pytest.mark.parametrize("head, status", [
        (_post("/nope", 2), "404"),
        (_post("/v1/schedule", "banana"), "400"),
        (_post("/v1/schedule", http_module.MAX_BODY_BYTES + 1), "400"),
        (_post("/v1/schedule", 0), "400"),
    ])
    def test_an_unread_body_closes_the_connection(self, served, head, status):
        server, _ = served
        # A second request rides behind: it must not be answered.
        text, closed = _raw_exchange(server, head, b"{}" + _post("/nope", 2))
        assert text.startswith(f"HTTP/1.1 {status} ")
        assert "Connection: close\r\n" in text
        assert text.count("HTTP/1.1 ") == 1 and closed

    def test_an_under_sent_body_is_a_408_and_a_close(self, served,
                                                     monkeypatch):
        server, _ = served
        monkeypatch.setattr(server._httpd.RequestHandlerClass, "timeout", 0.2)
        text, closed = _raw_exchange(server, _post("/v1/schedule", 500),
                                     b'{"program": ')
        assert text.startswith("HTTP/1.1 408 ")
        assert "Connection: close\r\n" in text and closed


class TestClientConnections:
    def test_a_stale_connection_is_one_transparent_reconnect(
            self, served, counted_sockets, monkeypatch):
        server, client = served
        monkeypatch.setattr(server._httpd.RequestHandlerClass, "timeout", 0.2)
        first = client.schedule("gemm:a")
        assert counted_sockets["connects"] == 1
        time.sleep(0.5)       # the server closes the idle connection
        second = client.schedule("gemm:a")
        assert second.canonical_hash == first.canonical_hash
        assert counted_sockets["connects"] == 2
        assert len(client._idle) == 1

    def test_a_fresh_connection_that_fails_is_raised_not_retried(self):
        accepted = []
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.settimeout(0.3)

            def hang_up():
                while True:      # until nobody has connected for 0.3 s
                    try:
                        connection, _ = listener.accept()
                    except OSError:
                        return
                    accepted.append(connection)
                    connection.recv(65536)
                    connection.close()
            thread = threading.Thread(target=hang_up, daemon=True)
            thread.start()
            port = listener.getsockname()[1]
            with ServingClient(f"http://127.0.0.1:{port}", timeout=5) as client:
                with pytest.raises(ConnectionError):
                    client.health()
                assert client._idle == []
            thread.join(JOIN_S)
            assert not thread.is_alive() and len(accepted) == 1
        refused = ServingClient(f"http://127.0.0.1:{port}", timeout=5)
        with pytest.raises(OSError):
            refused.health()

    def test_a_429_keeps_its_payload_and_the_connection(
            self, served, counted_sockets, monkeypatch):
        server, client = served
        schedule_timed = server.runner.schedule_timed

        def shed(request, request_id=None):
            raise AdmissionError("queue-full", "queue is full", 2.5)
        monkeypatch.setattr(server.runner, "schedule_timed", shed)
        with pytest.raises(ServingError) as error:
            client.schedule("gemm:a")
        assert error.value.status == 429
        assert error.value.payload["reason"] == "queue-full"
        assert error.value.payload["retry_after_s"] == 2.5
        monkeypatch.setattr(server.runner, "schedule_timed", schedule_timed)
        assert client.schedule("gemm:a").runtime_s > 0
        status, payload = client.request("GET", "/nope")
        assert status == 404 and "error" in payload
        assert client.metrics().startswith("#")
        assert counted_sockets["connects"] == 1
        # The socket of a reply that says "Connection: close" is not kept ...
        status, _ = client.request("POST", "/nope", {})
        assert status == 404
        assert client._idle == []
        assert client.health()["status"] == "ok"
        assert counted_sockets["connects"] == 2
        # ... and a non-JSON error body keeps its status.
        monkeypatch.setattr(server, "handle_metrics",
                            lambda: (503, "text/plain", "down"))
        with pytest.raises(ServingError) as error:
            client.metrics()
        assert error.value.status == 503 and "503" in error.value.payload["error"]
        assert client.request("GET", "/metrics")[0] == 503


# -- a stopped server stops -------------------------------------------------------


class TestStoppedServer:
    def test_stop_ends_kept_alive_connections(self):
        session = fast_session()
        before = set(threading.enumerate())
        server = ServingServer(session)
        server.start()
        port = server.port
        client = ServingClient(server.address, timeout=10)
        raw = http.client.HTTPConnection(server.host, port, timeout=10)
        try:
            assert client.health()["status"] == "ok"
            raw.request("GET", "/healthz")
            assert raw.getresponse().read()
            assert len(server._connections) == 2
            started = set(threading.enumerate()) - before
            server.stop()
            deadline = time.monotonic() + 1.0
            for thread in started:
                thread.join(max(0.0, deadline - time.monotonic()))
            assert [thread for thread in started if thread.is_alive()] == []
            assert not server._connections
            # The old connection is dead: never a 200, never a hang.
            with pytest.raises(ConnectionError):
                raw.request("GET", "/healthz")
                raw.getresponse()
            with pytest.raises(OSError):
                client.health()      # stale, then refused: nobody listens
            # A new server on the same port: the client finds it untold.
            with ServingServer(session, port=port):
                assert client.health()["status"] == "ok"
                assert client.schedule("gemm:a").runtime_s > 0
        finally:
            raw.close()
            client.close()
            server.stop()
            session.close()

    def test_a_reply_in_flight_is_still_written(self, monkeypatch):
        session = fast_session()
        entered, release = threading.Event(), threading.Event()
        with ServingServer(session) as server, \
                ServingClient(server.address, timeout=10) as client:
            healthz = server.handle_healthz

            def slow_healthz():
                entered.set()
                release.wait(JOIN_S)
                return healthz()
            monkeypatch.setattr(server, "handle_healthz", slow_healthz)
            answer = {}
            caller = threading.Thread(
                target=lambda: answer.update(client.health()))
            caller.start()
            assert entered.wait(JOIN_S)
            stopper = threading.Thread(target=server.stop)
            stopper.start()
            stopper.join(JOIN_S)
            assert not stopper.is_alive()
            release.set()
            caller.join(JOIN_S)
            assert not caller.is_alive() and answer["status"] == "ok"
        session.close()
