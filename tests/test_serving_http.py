"""End-to-end tests of the JSON-over-HTTP serving endpoint."""

from concurrent.futures import ThreadPoolExecutor

import pytest
from helpers import GEMM_PARAMS as PARAMS
from helpers import MALFORMED, build_gemm, fast_session, malformed_gemm

from repro.api import ScheduleRequest, ScheduleResponse
from repro.api.registry import SCHEDULERS
from repro.serving import ServingClient, ServingError, ServingServer


@pytest.fixture
def served():
    """A server on an ephemeral port plus its client."""
    session = fast_session()
    with ServingServer(session) as server:
        yield session, server, ServingClient(server.address)


class TestEndpoints:
    def test_healthz(self, served):
        _, _, client = served
        payload = client.health()
        assert payload["status"] == "ok"

    def test_schedule_round_trip(self, served):
        _, _, client = served
        status, payload = client.request(
            "POST", "/v1/schedule", ScheduleRequest(program="gemm:a").to_dict())
        assert status == 200
        response = ScheduleResponse.from_dict(payload)
        assert response.scheduler == "daisy"
        assert response.runtime_s > 0
        assert response.program.body

    def test_a_deadline_key_is_ignored(self, served):
        """A body that still carries the removed ``deadline_s`` is served
        exactly as the same body without it, whatever its value."""
        _, _, client = served
        body = ScheduleRequest(program="gemm:a").to_dict()

        def reply(payload):
            status, data = client.request("POST", "/v1/schedule", payload)
            assert status == 200, data
            data.pop("trace_id", None)
            data["request"].pop("trace", None)
            return data

        reply(body)
        expected = reply(body)
        for deadline in (0.5, "soon"):
            assert reply(dict(body, deadline_s=deadline)) == expected

    def test_schedule_with_inline_program(self, served):
        _, _, client = served
        response = client.schedule(build_gemm(), PARAMS)
        assert response.runtime_s > 0
        assert {info.status for info in response.result.nests} <= \
            {"optimized", "unchanged"}

    def test_equivalent_variant_is_served_from_cache(self, served):
        _, _, client = served
        first = client.schedule("gemm:a")
        second = client.schedule("gemm:b")
        assert not first.from_cache and second.from_cache
        assert second.runtime_s == first.runtime_s

    def test_report_reflects_traffic(self, served):
        session, _, client = served
        client.schedule("gemm:a")
        client.schedule("gemm:a")
        payload = client.report()
        assert payload["schedule_calls"] == 2
        assert payload["schedule_cache_hits"] == 1
        assert payload["service"]["requests"] == 2
        assert payload["cache_backend"] == "memory"
        assert session.report().schedule_calls == 2

    def test_report_round_trips_per_pass_timings(self, served):
        """Satellite: /v1/report must expose the per-pass timing counters of
        the normalization pipeline after real traffic."""
        _, _, client = served
        client.schedule("gemm:a")
        payload = client.report()
        passes = payload["normalization_passes"]
        for name in ("loop-normal-form", "maximal-fission",
                     "stride-minimization", "canonicalize-iterators"):
            assert name in passes, name
            assert passes[name]["runs"] >= 1
            assert passes[name]["wall_time_s"] >= 0.0
        assert passes["stride-minimization"]["changed"] >= 0

    def test_schedule_with_pipeline_name_over_http(self, served):
        _, _, client = served
        # gemm:a is a single fused nest, so fission changes its canonical
        # form — the two pipelines must produce distinct schedule entries.
        status, payload = client.request(
            "POST", "/v1/schedule",
            ScheduleRequest(program="gemm:a", pipeline="no-fission").to_dict())
        assert status == 200
        response = ScheduleResponse.from_dict(payload)
        assert response.request.pipeline == "no-fission"
        assert len(response.program.body) == 1  # not fissioned
        # The full-pipeline schedule is a fresh (non-cache) response with a
        # different canonical hash.
        full = client.schedule("gemm:a")
        assert not full.from_cache
        assert full.canonical_hash != response.canonical_hash

    def test_duplicate_concurrent_http_requests_coalesce(self, served):
        session, server, client = served
        with ThreadPoolExecutor(max_workers=6) as pool:
            responses = list(pool.map(
                lambda _: client.schedule("atax:a"), range(6)))
        assert len({response.runtime_s for response in responses}) == 1
        report = session.report()
        # One scheduler invocation total; everything else coalesced, hit the
        # schedule cache or took the fast lane, depending on arrival timing.
        assert report.schedule_cache_misses == 1
        stats = server.runner.stats
        assert stats.coalesced + report.schedule_cache_hits \
            + stats.fast_lane == 5


class TestErrorHandling:
    def test_unknown_path_is_404(self, served):
        _, _, client = served
        status, payload = client.request("GET", "/nope")
        assert status == 404 and "error" in payload
        status, _ = client.request("POST", "/nope", {})
        assert status == 404

    def test_invalid_json_is_400(self, served):
        import urllib.request

        _, server, _ = served
        request = urllib.request.Request(
            server.address + "/v1/schedule", data=b"{not json",
            method="POST", headers={"Content-Type": "application/json"})
        try:
            urllib.request.urlopen(request, timeout=10)
            status = 200
        except urllib.error.HTTPError as error:
            status = error.code
        assert status == 400

    def test_missing_program_is_400(self, served):
        _, _, client = served
        status, payload = client.request("POST", "/v1/schedule", {"threads": 2})
        assert status == 400 and "invalid schedule request" in payload["error"]

    def test_unknown_workload_is_400(self, served):
        _, _, client = served
        with pytest.raises(ServingError) as excinfo:
            client.schedule("definitely-not-a-workload")
        assert excinfo.value.status == 400

    def test_tune_request_is_400(self, served):
        _, _, client = served
        status, payload = client.request(
            "POST", "/v1/schedule",
            ScheduleRequest(program="gemm:a", tune=True).to_dict())
        assert status == 400 and "tune" in payload["error"]

    def test_a_constant_zero_divisor_is_400_on_a_kept_connection(
            self, served, monkeypatch):
        """A loop end of ``8 // 0`` (folded at decode) or ``NI // 0`` (not
        foldable) is an invalid request, and so is every malformed kind the
        session's boundary refuses; the connection serves on."""
        _, server, client = served
        connects = []
        handler = server._httpd.RequestHandlerClass
        setup = handler.setup
        monkeypatch.setattr(handler, "setup",
                            lambda self: (connects.append(1), setup(self)))
        for numerator in ({"kind": "const", "value": 8},
                          {"kind": "sym", "name": "NI"}):
            body = ScheduleRequest(program=build_gemm(),
                                   parameters=PARAMS).to_dict()
            body["program"]["body"][0]["end"] = {
                "kind": "floordiv", "numerator": numerator,
                "denominator": {"kind": "const", "value": 0}}
            status, payload = client.request("POST", "/v1/schedule", body)
            assert status == 400 and "constant zero" in payload["error"]
        for kind in MALFORMED:
            program, parameters = malformed_gemm(kind)
            status, payload = client.request(
                "POST", "/v1/schedule",
                ScheduleRequest(program=program, parameters=parameters).to_dict())
            assert status == 400, (kind, payload)
            assert "runtime_s" not in payload
        response = client.schedule(ScheduleRequest(program=build_gemm(),
                                                   parameters=PARAMS))
        assert response.runtime_s > 0
        assert len(connects) == 1

    @pytest.mark.parametrize("kind", ["zero-step", "negative-step",
                                      "parameter-negative-step"])
    def test_a_non_positive_step_is_400_under_every_scheduler(self, served,
                                                              kind):
        """Before the boundary refused it, icc priced ``gemm`` with a step
        of ``-1`` on its main nest at 6.85 µs."""
        _, _, client = served
        program, parameters = malformed_gemm(kind)
        for scheduler in SCHEDULERS.names():
            status, payload = client.request(
                "POST", "/v1/schedule",
                ScheduleRequest(program=program, parameters=parameters,
                                scheduler=scheduler).to_dict())
            assert status == 400 and "not positive" in payload["error"], (
                scheduler, payload)

    def test_a_loop_bound_that_reads_an_array_is_400(self, served):
        """Bounds are index expressions: ``Expr.evaluate`` refuses a
        ``Read`` in one instead of pricing the loop as empty."""
        _, _, client = served
        body = ScheduleRequest(program=build_gemm(), parameters=PARAMS).to_dict()
        body["program"]["body"][0]["end"] = {
            "kind": "read", "array": "A",
            "indices": [{"kind": "const", "value": 0}] * 2}
        status, payload = client.request("POST", "/v1/schedule", body)
        assert status == 400 and "Read" in payload["error"]

    def test_body_must_be_an_object(self, served):
        _, _, client = served
        status, _ = client.request("POST", "/v1/schedule", None)
        assert status == 400


class TestPersistentServing:
    def test_server_restart_serves_from_disk_cache(self, tmp_path):
        """Boot a SQLite-backed server, take it down, boot a fresh one on the
        same cache file: the identical request is served without scheduling."""
        path = str(tmp_path / "cache.sqlite")

        session = fast_session(cache_path=path)
        with ServingServer(session) as server:
            cold = ServingClient(server.address).schedule("gemm:a")
            assert not cold.from_cache
        session.cache.close()

        session = fast_session(cache_path=path)
        with ServingServer(session) as server:
            warm = ServingClient(server.address).schedule("gemm:a")
            assert warm.from_cache
            assert warm.normalization_cache_hit
            assert warm.runtime_s == cold.runtime_s
            report = session.report()
            assert report.cache_backend == "sqlite"
            assert report.cache_disk_hits >= 2
        session.cache.close()
