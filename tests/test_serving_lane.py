"""Tests for the one serving lane: a ServiceRunner and a ServingServer
schedule every request through their own session, so what they serve is
what that session, asked directly, replies — whatever the arrival order,
a tune between requests, or a cache file shared with another session."""

import json
import threading

import pytest
from helpers import parse_prometheus_text, prometheus_sample, queue_behind

from repro.api import (ScheduleRequest, ScheduleResponse, SearchConfig,
                       Session, TuningDatabase)
from repro.serving import (ServiceRunner, ServingClient,
                           ServingServer)

FAST_SEARCH = SearchConfig(population_size=4, epochs=1,
                           generations_per_epoch=1)

# With an empty database every lane agrees by accident; these seed one.  At
# size small the eight kernels tune to 25 entries, and each ``:b`` variant
# is scheduled by transfer from them.
AGREEMENT_KERNELS = ("gemm", "2mm", "atax", "bicg", "mvt", "gesummv", "syrk",
                     "syr2k")


def _session(database=None, **kwargs):
    """A session over a copy of ``database``: a lane never shares the
    reference's database object."""
    copy = (TuningDatabase.from_json(database.to_json())
            if database is not None else None)
    return Session(threads=4, size="small", search=FAST_SEARCH,
                   database=copy, **kwargs)


def _served(response):
    """Everything a reply says, less the trace a serving lane stamps on a
    traced reply and on the request it echoes."""
    data = response.to_dict()
    data.pop("trace_id", None)
    data["request"].pop("trace", None)
    return data


def _reply(response):
    """What must agree once a reply may come from cache: the modelled
    runtime, the program and every nest's schedule (status, recipe, and
    where it came from)."""
    return (response.runtime_s, response.to_dict()["program"],
            [info.to_dict() for info in response.result.nests])


def _variants():
    return [ScheduleRequest(program=f"{name}:b") for name in AGREEMENT_KERNELS]


@pytest.fixture(scope="module")
def tuned_database():
    session = _session()
    try:
        session.seed(AGREEMENT_KERNELS)
        return TuningDatabase.from_json(session.database.to_json())
    finally:
        session.close()


@pytest.fixture(scope="module")
def reference(tuned_database):
    """Each ``:b`` variant's cold reply from a session asked directly."""
    session = _session(tuned_database)
    try:
        return {request.program: session.schedule(request)
                for request in _variants()}
    finally:
        session.close()


# -- the service and the HTTP server reply as the session does ----------------------

@pytest.fixture(scope="module")
def seeded_runner(tuned_database):
    session = _session(tuned_database)
    with ServiceRunner(session) as runner:
        yield runner
    session.close()


@pytest.fixture(scope="module")
def seeded_client(tuned_database):
    session = _session(tuned_database)
    with ServingServer(session) as server, \
            ServingClient(server.address) as client:
        yield client
    session.close()


@pytest.mark.parametrize("kernel", AGREEMENT_KERNELS)
class TestLanesAgree:
    def test_the_service_serves_the_session_reply(self, seeded_runner,
                                                  reference, kernel):
        request = ScheduleRequest(program=f"{kernel}:b")
        assert _served(seeded_runner.schedule(request)) \
            == _served(reference[request.program])

    def test_http_serves_the_session_reply(self, seeded_client, reference,
                                           kernel):
        program = f"{kernel}:b"
        assert _served(seeded_client.schedule(program)) \
            == _served(reference[program])


class TestServiceAgreement:
    def test_a_seeded_service_schedules_like_a_session(
            self, tuned_database, reference):
        """Requests queued behind a held request are scheduled one by one;
        queueing changes no reply and no entry."""
        session = _session(tuned_database)
        requests = _variants()
        with ServiceRunner(session) as runner:
            served = queue_behind(runner, requests[0], requests[1:])
        assert [_served(response) for response in served] \
            == [_served(reference[request.program]) for request in requests]
        assert session.database.version == tuned_database.version
        session.close()

    @pytest.mark.parametrize("order", [
        lambda requests: requests[::-1],
        lambda requests: requests[3:] + requests[:3],
        lambda requests: requests[1::2] + requests[::2],
    ], ids=["reversed", "rotated", "interleaved"])
    def test_arrival_order_does_not_change_a_reply(
            self, tuned_database, reference, order):
        session = _session(tuned_database)
        requests = order(_variants())
        with ServiceRunner(session) as runner:
            served = queue_behind(runner, requests[0], requests[1:])
        assert [_served(response) for response in served] \
            == [_served(reference[request.program]) for request in requests]
        session.close()

    def test_a_tune_between_requests_keeps_the_service_agreeing(
            self, tuned_database):
        """A tune on the service's session reaches the next request, and no
        reply cached before it is served after it: ``3mm:b`` schedules
        from the new ``3mm`` entries, as on a session that tuned on the
        same seed."""
        expected = _session(tuned_database)
        expected.tune("3mm:a", label="3mm")
        session = _session(tuned_database)
        variant = ScheduleRequest(program="3mm:b")
        with ServiceRunner(session) as runner:
            before = [runner.schedule(variant) for _ in range(3)]
            assert runner.stats.fast_lane == 1  # its reply was cached
            session.tune("3mm:a", label="3mm")
            assert session.database.to_json() == expected.database.to_json()
            requests = [variant, *_variants()]
            served = queue_behind(runner, requests[0], requests[1:])
        assert [_reply(response) for response in served] \
            == [_reply(expected.schedule(request)) for request in requests]
        assert _reply(served[0]) != _reply(before[0])
        session.close()
        expected.close()


class TestServiceResponses:
    def test_queued_requests_return_in_order_with_their_own_errors(self):
        session = _session()
        with ServiceRunner(session) as runner:
            results = queue_behind(
                runner, ScheduleRequest(program="gemm:a"),
                [ScheduleRequest(program="definitely-not-a-workload"),
                 ScheduleRequest(program="mvt:a")])
        session.close()
        assert len(results) == 3
        # The one response type, whatever lane produced it.
        assert type(results[0]) is type(results[2]) is ScheduleResponse
        assert isinstance(results[1], KeyError)  # RegistryError subclass
        # Programs surface under the requested registry names.
        assert results[0].program.name.startswith("gemm")
        assert results[2].program.name.startswith("mvt")

    def test_portable_response_json_dict_and_attrs_agree(self):
        """The slow lane's response object and the fast lane's stored text
        say the same thing, field for field."""
        session = _session()
        request = ScheduleRequest(program="bicg:a")
        with ServiceRunner(session) as runner:
            responses = [runner.schedule(request) for _ in range(3)]
            assert runner.stats.fast_lane == 1
        session.close()
        for response in responses:
            assert type(response) is ScheduleResponse
            payload = json.loads(response.to_json())
            assert payload == response.to_dict()
            assert response.runtime_s == payload["runtime_s"]
            assert response.scheduler == payload["scheduler"]
            assert ScheduleResponse.from_json(response.to_json()).to_dict() \
                == payload
        # The fast lane serves the cached slow-lane reply, untraced.
        assert _served(responses[2]) == _served(responses[1])
        assert _reply(responses[2]) == _reply(responses[0])

    def test_a_normalized_equivalent_variant_is_served_from_cache(self):
        session = _session()
        with ServiceRunner(session) as runner:
            first = runner.schedule(ScheduleRequest(program="atax:a"))
            second = runner.schedule(ScheduleRequest(program="atax:b"))
        session.close()
        assert not first.from_cache
        assert second.from_cache
        assert second.runtime_s == first.runtime_s

    def test_a_stopped_service_refuses_work_and_its_session_serves_on(self):
        session = _session()
        request = ScheduleRequest(program="gemm:a")
        runner = ServiceRunner(session)
        runner.start()
        served = runner.schedule(request)
        runner.stop()
        with pytest.raises(RuntimeError, match="not running"):
            runner.schedule(request)
        # The service owns no session state: its session still answers,
        # from the cache the service filled.
        direct = session.schedule(request)
        session.close()
        assert direct.from_cache
        assert _reply(direct) == _reply(served)


# -- one cache file, several sessions ------------------------------------------------

class TestSharedCacheFile:
    def test_two_services_share_one_cache_file(self, tmp_path):
        """Several serve processes may share one cache file: what one
        session's service computed, another's serves from cache."""
        cache = str(tmp_path / "shared.sqlite")
        first, second = _session(cache_path=cache), _session(cache_path=cache)
        try:
            with ServiceRunner(first) as one, ServiceRunner(second) as two:
                computed = one.schedule(ScheduleRequest(program="atax:a"))
                served = two.schedule(ScheduleRequest(program="atax:b"))
        finally:
            first.close()
            second.close()
        assert not computed.from_cache
        assert served.from_cache
        assert served.runtime_s == computed.runtime_s
        assert second.report().cache_backend == "sqlite"

    def test_cache_survives_service_generations(self, tmp_path):
        cache = str(tmp_path / "generations.sqlite")
        request = ScheduleRequest(program="gemm:a")
        session = _session(cache_path=cache)
        with ServiceRunner(session) as runner:
            first = runner.schedule(request)
        session.close()
        assert not first.from_cache
        session = _session(cache_path=cache)
        with ServiceRunner(session) as runner:
            second = runner.schedule(request)
        session.close()
        assert second.from_cache
        assert _reply(second) == _reply(first)


# -- the report and the metrics under traffic ----------------------------------------

class TestReportUnderTraffic:
    def test_report_and_metrics_rounds_are_consistent_under_traffic(self):
        """``/v1/report`` and ``/metrics`` read the registry every request
        writes; read while requests are scheduled, neither fails and no
        counter goes back."""
        session = _session()
        stop = threading.Event()
        failures = []
        with ServingServer(session) as server:
            def traffic():
                with ServingClient(server.address) as client:
                    while not stop.is_set():
                        for program in ("gemm:a", "mvt:a", "atax:a"):
                            try:
                                client.schedule(program)
                            except Exception as error:  # noqa: BLE001
                                failures.append(error)

            thread = threading.Thread(target=traffic, daemon=True)
            thread.start()
            seen = (0, 0)
            try:
                with ServingClient(server.address) as client:
                    for _ in range(20):
                        report = client.report()
                        metrics = parse_prometheus_text(client.metrics())
                        counts = (report["service"]["requests"],
                                  prometheus_sample(
                                      metrics, "repro_session_calls_total",
                                      kind="schedule") or 0)
                        assert counts[0] >= seen[0]
                        assert counts[1] >= seen[1]
                        seen = counts
                        assert "pool" not in report
            finally:
                stop.set()
                thread.join(timeout=60)
        session.close()
        assert not thread.is_alive()
        assert failures == []
        assert seen[0] > 0

    def test_report_counts_what_the_service_did(self):
        session = _session()
        with ServingServer(session) as server, \
                ServingClient(server.address) as client:
            for program in ("gemm:a", "mvt:a", "gemm:a", "gemm:a"):
                client.schedule(program)
            report = client.report()
        session.close()
        service = report["service"]
        # Two cold misses, the repeat from cache (stored), then the fast
        # lane.
        assert service["requests"] == 4
        assert service["scheduled"] == 4
        assert service["fast_lane"] == 1
        assert service["errors"] == 0
        assert report["schedule_calls"] == 3
        assert report["cache_backend"] == "memory"


@pytest.mark.parametrize("path", ["/v1/report", "/metrics"])
def test_a_get_route_that_raises_answers_500_and_keeps_the_connection(
        monkeypatch, path):
    session = Session(threads=2)

    def broken():
        raise RuntimeError("registry unavailable")

    try:
        with ServingServer(session) as server:
            monkeypatch.setattr(session, "report", broken)
            monkeypatch.setattr(server.metrics, "render", broken)
            handler = server._httpd.RequestHandlerClass
            setup, connects = handler.setup, []

            def counted_setup(self):
                connects.append(self)
                setup(self)
            monkeypatch.setattr(handler, "setup", counted_setup)
            with ServingClient(server.address) as client:
                assert client.request("GET", path) == (
                    500, {"error": "RuntimeError: registry unavailable"})
                assert client.health()["status"] == "ok"
            assert len(connects) == 1
    finally:
        session.close()
