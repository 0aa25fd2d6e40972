"""A warm hit is served on the thread that asks — identically.

The service's fast lane runs on the caller's thread, before any lock
(``ServiceRunner.fast_lane``), and only a miss is queued for the batcher
thread; a request is fingerprinted once; the fast lane's instruments are
bound once.
None of that may change a byte, a span, a counter or a digest, so every
check here is ``==`` against a reference: the request fingerprint the
serving tier used before (kept below as the specification), a plain
single-threaded ``Session``, and the three entrances against one another.
"""

import collections
import collections.abc
import hashlib
import json
import random
import re
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Mapping

import pytest

from helpers import fast_session
from repro.api import ScheduleRequest, program_content_hash
from repro.api.backends import MemoryCacheBackend
from repro.api.cache import RESPONSE_NAMESPACE
from repro.experiments.figure1 import LOOP_ORDERS, build_gemm_order
from repro.ir.nodes import Program
from repro.observability import Span, TraceRecord, Tracer
from repro.observability.metrics import _Instrument
from repro.serving import ServiceRunner, request_fingerprint
from repro.serving import service as service_module
from repro.workloads.registry import benchmark, benchmark_names

JOIN_S = 60.0


# -- the specification: request_fingerprint as it was -----------------------------


def _spec_stable_value(value: Any) -> Any:
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: _spec_stable_value(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, Mapping):
        return {str(k): _spec_stable_value(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_spec_stable_value(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _spec_fingerprint(value: Any) -> str:
    text = json.dumps(_spec_stable_value(value), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _spec_request_fingerprint(request: ScheduleRequest) -> str:
    program = request.program
    if isinstance(program, Program):
        program_key = program_content_hash(program)
    else:
        program_key = str(program)
    return _spec_fingerprint({
        "program": program_key,
        "parameters": (dict(request.parameters)
                       if request.parameters is not None else None),
        "scheduler": request.scheduler,
        "threads": request.threads,
        "normalize": request.normalize,
        "pipeline": request.pipeline,
    })


# -- helpers --------------------------------------------------------------------------

_DECODER = json.JSONDecoder()
_ECHO_KEY = '"request": '
_TRACE_ID = re.compile(r', "trace_id": "[^"]*"\}$')


def split_response(text):
    """``(before, echo, after)`` of a response's JSON text without the
    per-request parts (trace context, trace id) — the comparison the
    benchmark harness makes (``benchmarks/perf/workloads.py``)."""
    start = text.index(_ECHO_KEY) + len(_ECHO_KEY)
    echo, end = _DECODER.raw_decode(text, start)
    echo.pop("trace", None)
    return text[:start], echo, _TRACE_ID.sub("}", text[end:])


def served_text(response):
    return split_response(response.to_json())


def warm(runner, request):
    """Schedule ``request`` until the fast lane serves it (cold, then
    cache-served and stored, then a hit)."""
    runner.schedule(request)
    runner.schedule(request)
    response, timing = runner.schedule_timed(request)
    assert timing.fast_lane
    return response


def latency_sum(session, priority):
    histogram = session.metrics.get("repro_request_latency_seconds")
    return histogram.labels(str(priority)).sum


# -- (1) one fingerprint, the same sixteen digits -------------------------------------


@dataclass
class _Options:
    tile: int = 32
    orders: tuple = ("i", "j")
    nested: Any = None


class _FrozenMapping(collections.abc.Mapping):
    def __init__(self, data):
        self._data = dict(data)

    def __getitem__(self, key):
        return self._data[key]

    def __iter__(self):
        return iter(self._data)

    def __len__(self):
        return len(self._data)


class _Opaque:
    def __repr__(self):
        return "<opaque>"


def _random_value(rng, depth=0):
    choices = [
        lambda: rng.randrange(-5, 4096),
        lambda: rng.random() * 1e3,
        lambda: float(rng.randrange(8)),
        lambda: rng.random() < 0.5,
        lambda: None,
        lambda: rng.choice(["", "x", "NI", "ünï", 'quo"te']),
        lambda: _Opaque(),
        lambda: _Options(rng.randrange(64)),
    ]
    if depth < 3:
        choices += [
            lambda: tuple(_random_value(rng, depth + 1)
                          for _ in range(rng.randrange(3))),
            lambda: [_random_value(rng, depth + 1)
                     for _ in range(rng.randrange(3))],
            lambda: _random_mapping(rng, depth + 1),
            lambda: _Options(nested=_random_mapping(rng, depth + 1)),
        ]
    return rng.choice(choices)()


def _random_mapping(rng, depth=0):
    data = {rng.choice(["NI", "NJ", "NK", "T", "alpha", "z", "a b"]):
            _random_value(rng, depth) for _ in range(rng.randrange(4))}
    wrap = rng.choice([dict, collections.OrderedDict, types.MappingProxyType,
                       _FrozenMapping])
    return wrap(data)


def _random_request(rng, programs):
    def maybe(make):
        return make() if rng.random() < 0.5 else None

    parameters = rng.choice([
        lambda: None, lambda: {}, lambda: _random_mapping(rng),
        lambda: {"NI": 64, "NJ": 64, "NK": 64}])()
    return ScheduleRequest(
        program=rng.choice(programs),
        parameters=parameters,
        scheduler=maybe(lambda: rng.choice(["daisy", "clang", "polly"])),
        threads=maybe(lambda: rng.randrange(1, 64)),
        label=maybe(lambda: rng.choice(["x", "y"])),
        normalize=maybe(lambda: rng.random() < 0.5),
        pipeline=maybe(lambda: rng.choice(["a-priori", "no-fission"])),
        priority=rng.randrange(10),
        client=maybe(lambda: rng.choice(["alice", "bob"])))


class TestOneFingerprint:
    def test_registry_requests_keep_their_digests(self):
        requests = [ScheduleRequest(program=f"{name}:{variant}")
                    for name in benchmark_names()
                    for variant in ("a", "b", "npbench")]
        assert len(requests) == 54
        for request in requests:
            assert request_fingerprint(request) \
                == _spec_request_fingerprint(request)
        assert len({request_fingerprint(r) for r in requests}) == 54

    def test_ir_requests_keep_their_digests(self):
        sizes = dict(benchmark("gemm").sizes("large"))
        digests = set()
        for order in LOOP_ORDERS:
            request = ScheduleRequest(program=build_gemm_order(order),
                                      parameters=sizes)
            digest = request_fingerprint(request)
            assert digest == _spec_request_fingerprint(request)
            digests.add(digest)
        assert len(digests) == len(LOOP_ORDERS) == 6

    def test_random_requests_keep_their_digests(self):
        rng = random.Random(20)
        programs = ["gemm:a", "atax:b", "fuzz:small-1",
                    "for (i = 0; i < N; i++) { y[i] = x[i]; }",
                    build_gemm_order("ijk"), build_gemm_order("kji")]
        seen = collections.Counter()
        for _ in range(500):
            request = _random_request(rng, programs)
            digest = request_fingerprint(request)
            assert digest == _spec_request_fingerprint(request), request
            assert len(digest) == 16
            seen[type(request.parameters).__name__] += 1
        # Every parameter shape was drawn, not only plain dicts.
        assert {"NoneType", "dict", "OrderedDict", "mappingproxy",
                "_FrozenMapping"} <= set(seen)

    def test_the_service_hands_its_fingerprint_to_the_session(self):
        session = fast_session()
        request = ScheduleRequest(program="gemm:a")
        with ServiceRunner(session) as runner:
            warm(runner, request)
            # A key the session did not compute is the key it looks up.
            assert session.lookup_response(request, key="no-such-digest") is None
            assert session.lookup_response(
                request, key=request_fingerprint(request)).to_json() \
                == session.lookup_response(request).to_json()
        session.close()


# -- (2) eight threads, one runner ----------------------------------------------------

WARM = ["gemm:a", "atax:a", "mvt:a", "2mm:a"]
COLD = ["bicg:a", "gesummv:a", "syrk:a", "fuzz:small-0", "fuzz:small-1",
        "fuzz:small-2"]
THREADS, PER_THREAD = 8, 200


def _reference_texts(programs):
    """Per program, the cold and the cache-served response (the text either
    side of the echo) of a plain single-threaded session that shares nothing
    with the served one."""
    session = fast_session()
    try:
        texts = {}
        for program in programs:
            request = ScheduleRequest(program=program)
            served = [served_text(session.schedule(request)) for _ in range(2)]
            assert all(echo == request.to_dict() for _, echo, _ in served)
            texts[program] = {(before, after) for before, _, after in served}
        return texts
    finally:
        session.close()


@pytest.mark.parametrize("fast_lane", [True, False])
def test_eight_threads_through_one_runner_match_the_reference(fast_lane,
                                                              monkeypatch):
    reference = _reference_texts(WARM + COLD)
    session = fast_session()
    if not fast_lane:
        # A response-cache read that always misses: every request takes
        # the slow lane.
        monkeypatch.setattr(session, "lookup_response",
                            lambda request, key=None: None)
    results = [[] for _ in range(THREADS)]
    barrier = threading.Barrier(THREADS)

    def client(number):
        rng = random.Random(number)
        # Every thread opens with the same cold programs at the same moment
        # (in-flight duplicates), then mixes hits with the rest.
        order = list(COLD)
        while len(order) < PER_THREAD:
            order.append(rng.choice(WARM + COLD))
        barrier.wait(JOIN_S)
        for program in order:
            request = ScheduleRequest(program=program,
                                      priority=rng.randrange(10))
            response, timing = runner.schedule_timed(request, timeout=JOIN_S)
            results[number].append((program, request, response, timing))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ServiceRunner(session) as runner:
            for program in WARM:
                runner.schedule(ScheduleRequest(program=program))
                runner.schedule(ScheduleRequest(program=program))
            before = runner.stats.to_dict()
            admitted = runner.admission.stats.admitted
            reads = session.cache.stats
            threads = [threading.Thread(target=client, args=(number,))
                       for number in range(THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(JOIN_S)
            assert not any(thread.is_alive() for thread in threads)
            # Every admitted request was claimed and resolved exactly once.
            assert runner._queue == [] and runner._inflight == {}
            after = runner.stats.to_dict()
            admitted = runner.admission.stats.admitted - admitted
    finally:
        sys.setswitchinterval(interval)

    total = THREADS * PER_THREAD
    assert sum(len(per_thread) for per_thread in results) == total  # no lost future
    for per_thread in results:
        for program, request, response, timing in per_thread:
            head, echo, tail = served_text(response)
            assert (head, tail) in reference[program], program
            assert echo == request.to_dict()
            if fast_lane and program in WARM:
                assert timing.fast_lane and not timing.coalesced
    delta = {key: after[key] - before[key] for key in after}
    assert delta["requests"] == total
    assert delta["requests"] == delta["fast_lane"] + admitted
    assert delta["errors"] == delta["rejected"] == 0
    assert delta["coalesced"] >= 1          # the opening burst rode together
    stats = session.cache.stats
    response_reads = (stats.response_hits + stats.response_misses
                      - reads.response_hits - reads.response_misses)
    if fast_lane:
        assert delta["fast_lane"] >= THREADS * (PER_THREAD - len(COLD)) * 0.5
        # At most one response-cache read per request (in-flight duplicates
        # skip it); its hits are exactly the fast-lane count.
        assert stats.response_hits - reads.response_hits == delta["fast_lane"]
        assert delta["fast_lane"] < response_reads <= total
    else:
        assert delta["fast_lane"] == 0 and response_reads == 0
    session.close()


# -- (3) three entrances, one behaviour ------------------------------------------------

SEQUENCE = ["gemm:a", "gemm:a", "gemm:a", "atax:a", "gemm:a"]


def _drive(entrance):
    """Run SEQUENCE through one entrance of a fresh runner; returns what a
    caller and an operator can observe."""
    session = fast_session()
    requests = [ScheduleRequest(program=program) for program in SEQUENCE]
    with ServiceRunner(session) as runner:
        if entrance == "timed":
            responses = [runner.schedule_timed(request)[0]
                         for request in requests]
        elif entrance == "schedule":
            responses = [runner.schedule(request) for request in requests]
        else:  # one request at a time from another thread
            with ThreadPoolExecutor(1) as pool:
                responses = [pool.submit(runner.schedule, request).result()
                             for request in requests]
    traces = [session.tracer.get(summary["trace_id"])
              for summary in reversed(session.tracer.traces())]
    observed = {
        "texts": [response.to_json() for response in responses],
        "service": runner.stats.to_dict(),
        "admission": runner.admission.stats.to_dict(),
        "cache": session.cache.stats.to_dict(),
        "calls": {tuple(series["labels"]): series["value"] for series in
                  session.metrics.to_dict()["repro_session_calls_total"]["series"]},
        "traces": [(trace.trace_id, trace.status, trace.attributes,
                    sorted(span.name for span in trace.spans))
                   for trace in traces],
    }
    session.close()
    return observed


def test_the_three_entrances_agree():
    timed, plain, threaded = (_drive(entrance) for entrance
                              in ("timed", "schedule", "thread"))
    # Same bytes — trace ids included: ids are minted from the same local
    # request ids, once per request, whichever thread runs the front.
    assert timed == plain == threaded
    observed = timed
    assert observed["service"]["requests"] == len(SEQUENCE)
    assert observed["service"]["fast_lane"] == 2
    assert observed["admission"]["admitted"] == len(SEQUENCE) - 2
    # One trace per miss; the two hits record none.
    assert len(observed["traces"]) == len(SEQUENCE) - 2
    for position, (_, status, attributes, names) in enumerate(observed["traces"]):
        assert status == "ok"
        assert attributes["request_id"].endswith(f"-{position + 1}")
        assert "fast_lane" not in attributes
        # One ``request`` root, the slow lane's spans under it.
        assert names.count("request") == 1
        assert "service.admission" in names and "service.queue" in names
    assert [json.loads(text).get("trace_id") is not None
            for text in observed["texts"]] == [True, True, False, True, False]
    assert split_response(observed["texts"][2]) \
        == split_response(observed["texts"][1])


# -- (4) untraced hits stay untraced ---------------------------------------------------


@pytest.mark.parametrize("tracer", [Tracer, lambda: Tracer(enabled=False)],
                         ids=["default", "disabled"])
def test_untraced_hits_carry_no_trace_id(tracer):
    session = fast_session(tracer=tracer())
    request = ScheduleRequest(program="gemm:a")
    with ServiceRunner(session) as runner:
        warm(runner, request)
        stored = session.tracer.stored
        response, timing = runner.schedule_timed(request, request_id="req-7")
    assert timing.fast_lane and timing.trace_id is None
    assert response.trace_id is None
    payload = json.loads(response.to_json())
    assert "trace_id" not in payload and "trace" not in payload["request"]
    assert session.tracer.stored == stored
    session.close()


# -- the fast lane reports the latency its caller saw ----------------------------------


def test_fast_lane_latency_includes_the_fingerprint(monkeypatch):
    session = fast_session()
    request = ScheduleRequest(program="gemm:a", priority=3)
    with ServiceRunner(session) as runner:
        warm(runner, request)

        def slow_fingerprint(request):
            time.sleep(0.005)
            return request_fingerprint(request)

        monkeypatch.setattr(service_module, "request_fingerprint",
                            slow_fingerprint)
        before = latency_sum(session, 3)
        response, timing = runner.schedule_timed(request)
    assert timing.fast_lane
    assert timing.total_s >= 0.005
    assert latency_sum(session, 3) - before >= 0.005
    session.close()


# -- a slow cache read stalls nobody else -----------------------------------------------


class _ParkingBackend(MemoryCacheBackend):
    """Response-namespace reads of one request fingerprint park on an event."""

    def __init__(self):
        super().__init__()
        self.park = None            # fingerprint whose reads block
        self.parked = threading.Event()
        self.release = threading.Event()

    def get(self, namespace, key):
        if namespace == RESPONSE_NAMESPACE and self.park is not None \
                and key.startswith(self.park):
            self.parked.set()
            assert self.release.wait(JOIN_S)
        return super().get(namespace, key)


class TestSlowCacheRead:
    def _parked_caller(self, runner, backend, request, outcome):
        def call():
            try:
                outcome.append(runner.schedule_timed(request, timeout=JOIN_S))
            except BaseException as error:  # noqa: BLE001 - reported to the test
                outcome.append(error)

        backend.park = request_fingerprint(request)
        thread = threading.Thread(target=call)
        thread.start()
        assert backend.parked.wait(JOIN_S)
        return thread

    def test_other_requests_are_served_while_one_read_is_parked(self):
        backend = _ParkingBackend()
        session = fast_session(cache_backend=backend)
        slow, third = (ScheduleRequest(program=program)
                       for program in ("gemm:a", "atax:a"))
        outcome = []
        with ServiceRunner(session) as runner:
            warm(runner, slow)
            warm(runner, third)
            thread = self._parked_caller(runner, backend, slow, outcome)
            try:
                # A cold request is queued, scheduled and answered...
                cold, timing = runner.schedule_timed(
                    ScheduleRequest(program="mvt:a"), timeout=10.0)
                assert not timing.fast_lane and cold.runtime_s > 0
                # ...and a warm one is served beside the parked reader.
                _, timing = runner.schedule_timed(third, timeout=10.0)
                assert timing.fast_lane
                assert not outcome and thread.is_alive()
            finally:
                backend.release.set()
                thread.join(JOIN_S)
            assert not thread.is_alive()
            (response, timing), = outcome
            assert timing.fast_lane and response.runtime_s > 0
        session.close()

    def test_a_hit_racing_stop_raises_or_serves_but_never_hangs(self):
        backend = _ParkingBackend()
        session = fast_session(cache_backend=backend)
        request = ScheduleRequest(program="gemm:a")
        outcome = []
        runner = ServiceRunner(session)
        runner.start()
        warm(runner, request)
        thread = self._parked_caller(runner, backend, request, outcome)
        try:
            stopper = threading.Thread(target=runner.stop)
            stopper.start()
            stopper.join(10.0)
            assert not stopper.is_alive()       # stop() did not wait for the read
        finally:
            backend.release.set()
            thread.join(JOIN_S)
        assert not thread.is_alive()
        # The parked caller had passed the running check: it is served.
        (response, timing), = outcome
        assert timing.fast_lane
        backend.park = None
        with pytest.raises(RuntimeError, match="service is not running"):
            runner.schedule(request)
        session.close()

    def test_a_stopped_service_refuses_on_either_side_of_the_lock(self):
        session = fast_session()
        request = ScheduleRequest(program="gemm:a")
        message = "service is not running; call start\\(\\) first"
        with ServiceRunner(session) as runner:
            warm(runner, request)
            served, key, arrived = runner.fast_lane(
                ScheduleRequest(program="atax:a"))
            assert served is None
            runner.stop()
            with pytest.raises(RuntimeError, match=message):
                runner.schedule(request)            # a hit, before the lock
            with pytest.raises(RuntimeError, match=message):
                runner._slow_lane(                  # a miss, past the front
                    ScheduleRequest(program="atax:a"), "req-9", key, arrived,
                    JOIN_S)
            # The slow lane opened the miss's root and closed it.
            record = session.tracer.get(Tracer.trace_id_for("req-9"))
            assert record.status == "error"
        session.close()


# -- counted, not only timed -------------------------------------------------------------

FAST_LANE_INSTRUMENTS = {
    "repro_service_scheduled_total", "repro_session_calls_total",
    "repro_cache_requests_total", "repro_request_latency_seconds"}


def test_a_thousand_warm_requests_counted(monkeypatch):
    session = fast_session()
    requests = [ScheduleRequest(program=program) for program in WARM]
    counts = collections.Counter()

    def counting(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    labels = _Instrument.labels

    def counted_labels(self, *values, **kwargs):
        counts["labels", self.name] += 1
        return labels(self, *values, **kwargs)

    with ServiceRunner(session) as runner:
        for request in requests:
            warm(runner, request)
        monkeypatch.setattr(runner, "_slow_lane",
                            counting("hop", runner._slow_lane))
        for module in (service_module, sys.modules["repro.api.session"]):
            monkeypatch.setattr(module, "request_fingerprint",
                                counting("fingerprint", request_fingerprint))
        monkeypatch.setattr(_Instrument, "labels", counted_labels)
        before = session.cache.stats
        fast_lane = runner.stats.fast_lane
        for number in range(1000):
            runner.schedule(requests[number % len(requests)])
        after = session.cache.stats
        assert runner.stats.fast_lane - fast_lane == 1000
        assert counts["hop"] == 0                   # was 1 000
        assert counts["fingerprint"] == 1000        # was 2 000
        touched = {key[1] for key in counts if isinstance(key, tuple)}
        assert not touched & FAST_LANE_INSTRUMENTS  # was 6 000 labels() calls
        assert (after.response_hits + after.response_misses
                - before.response_hits - before.response_misses) == 1000
        # The slow lane reads the response cache once per request too.
        counts.clear()
        runner.schedule(ScheduleRequest(program="bicg:a"))
        cold = session.cache.stats
        assert counts["hop"] == 1 and counts["fingerprint"] == 1
        assert (cold.response_hits, cold.response_misses) \
            == (after.response_hits, after.response_misses + 1)
        monkeypatch.undo()
    session.close()


# -- a traced session records nothing for a hit --------------------------------------


def test_a_thousand_warm_hits_record_no_trace(monkeypatch):
    session = fast_session()
    tracer = session.tracer
    requests = [ScheduleRequest(program=program, priority=number,
                                client=None if number % 2 else "alice")
                for number, program in enumerate(WARM)]
    counts = collections.Counter()

    def counting(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    with ServiceRunner(session) as runner:
        for request in requests:
            warm(runner, request)
        stored = tracer.stored
        traces = tracer.traces()
        monkeypatch.setattr(hashlib, "blake2s",
                            counting("hash", hashlib.blake2s))
        monkeypatch.setattr(Span, "__init__", counting("span", Span.__init__))
        monkeypatch.setattr(TraceRecord, "__init__",
                            counting("record", TraceRecord.__init__))
        responses = [runner.schedule_timed(requests[number % len(requests)])
                     for number in range(1000)]
        assert (counts["hash"], counts["span"], counts["record"]) \
            == (0, 0, 0)                    # was 1 000, 0, 0
        monkeypatch.undo()
        assert all(timing.fast_lane and timing.trace_id is None
                   and response.trace_id is None
                   for response, timing in responses)
        # The ring holds the warm-up misses' traces and nothing else.
        assert tracer.stored == stored == 2 * len(requests)
        assert tracer.traces() == traces
    session.close()
