"""Tests for end-to-end request tracing and the queue-saturation alert:
tracer core semantics, the /v1/traces and /alerts endpoints, and the
trace-dump CLI exporters."""

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from helpers import fast_session, hold_next_request, wait_until

from repro.api import ScheduleRequest
from repro.observability import (AlertRule, MetricsRegistry, Tracer,
                                 chrome_trace_document, current_trace_id,
                                 default_alert_rules, span,
                                 traces_to_jsonl)
from repro.observability import tracing as tracing_module
from repro.serving import (AdmissionError, ServiceConfig, ServingClient,
                           ServingError, ServingServer)
from repro.serving.cli import main as cli_main


# -- tracer core --------------------------------------------------------------------

class TestTracerCore:
    def test_trace_id_is_deterministic_and_stable_across_tracers(self):
        assert Tracer.trace_id_for("req-1") == Tracer.trace_id_for("req-1")
        assert Tracer.trace_id_for("req-1") != Tracer.trace_id_for("req-2")
        assert len(Tracer.trace_id_for("req-1")) == 16

    def test_nested_spans_form_one_tree(self):
        tracer = Tracer()
        with tracer.trace("request", request_id="req-1") as root:
            assert current_trace_id() == root.trace_id
            with span("outer", layer=1) as outer:
                with span("inner") as inner:
                    assert inner.parent_id == outer.span_id
        record = tracer.get(Tracer.trace_id_for("req-1"))
        assert record is not None
        assert [s.name for s in record.spans] == ["request", "outer", "inner"]
        tree = record.tree()
        assert len(tree) == 1 and tree[0]["name"] == "request"
        assert tree[0]["children"][0]["children"][0]["name"] == "inner"
        assert tree[0]["children"][0]["attributes"] == {"layer": 1}

    def test_span_outside_any_trace_is_a_noop(self):
        assert current_trace_id() is None
        with span("orphan") as scope:
            scope.set_attribute("ignored", True)
            assert scope.context() == {}

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.trace("request", request_id="req-1"):
            with span("child"):
                pass
        assert tracer.stored == 0
        assert current_trace_id() is None

    def test_exception_marks_span_and_trace_as_error(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.trace("request", request_id="req-1"):
                with span("child"):
                    raise RuntimeError("boom")
        record = tracer.get(Tracer.trace_id_for("req-1"))
        assert record.status == "error"
        child = next(s for s in record.spans if s.name == "child")
        assert child.status == "error"
        assert "boom" in child.attributes["error"]

    def test_ring_buffer_evicts_oldest(self):
        tracer = Tracer(capacity=2)
        for index in range(3):
            with tracer.trace("request", request_id=f"req-{index}"):
                pass
        assert tracer.stored == 2
        assert tracer.get(Tracer.trace_id_for("req-0")) is None
        summaries = tracer.traces()
        assert [s["trace_id"] for s in summaries] == [
            Tracer.trace_id_for("req-2"), Tracer.trace_id_for("req-1")]
        assert tracer.traces(limit=1)[0]["trace_id"] == \
            Tracer.trace_id_for("req-2")

    def test_open_traces_are_bounded_dropping_the_oldest(self):
        # A child span whose root never finishes holds its trace open; past
        # MAX_OPEN_TRACES the oldest open trace loses what it held.
        tracer = Tracer()
        roots = [tracer.begin_request(f"req-{index}", {}, 0.0)
                 for index in range(tracing_module.MAX_OPEN_TRACES + 1)]
        for root in roots:
            tracer.record(root.trace_id, root.span_id, "child", 0.0, 1.0)
        tracer.finish(roots[0], end_s=1.0)
        tracer.finish(roots[1], end_s=1.0)
        assert [s.name for s in tracer.get(roots[0].trace_id).spans] \
            == ["request"]
        assert sorted(s.name for s in tracer.get(roots[1].trace_id).spans) \
            == ["child", "request"]

    def test_a_max_open_keyword_is_rejected(self):
        with pytest.raises(TypeError, match="max_open"):
            Tracer(max_open=8)

    def test_spans_finished_after_their_root_land_sorted(self):
        """A caller that stops waiting (a timeout, ``stop()``) finishes its
        request's root while the batch still runs: the batch's spans land
        in the finalized trace, in order, under the one root."""
        tracer = Tracer()
        trace_id = Tracer.trace_id_for("req-1")
        root = tracer.begin("request", trace_id, start_s=0.0)
        tracer.finish(root, end_s=1.0)
        for index in reversed(range(300)):
            # Ties on start_s exercise the span-id tiebreak.
            tracer.record(trace_id, root.span_id, f"work-{index}",
                          (index // 3) * 1e-3, 1.0)
        record = tracer.get(trace_id)
        assert len(record.spans) == 301
        assert record.spans == sorted(record.spans,
                                      key=tracing_module._span_order)
        assert len(record.tree()) == 1

    def test_chrome_document_and_jsonl_exporters(self):
        tracer = Tracer()
        with tracer.trace("request", request_id="req-1"):
            with span("child"):
                pass
        records = [tracer.get(Tracer.trace_id_for("req-1"))]
        doc = chrome_trace_document(records)
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        # One process ran every span: one pid, no per-process metadata.
        assert [e["ph"] for e in events] == ["X", "X"]
        assert {e["pid"] for e in events} == {1}
        for event in events:
            assert event["dur"] >= 0
            assert event["args"]["trace_id"] == records[0].trace_id
        # The dict form (as served by /v1/traces/<id>) renders identically.
        assert chrome_trace_document(
            [records[0].to_dict()])["traceEvents"] == events
        lines = traces_to_jsonl(records).splitlines()
        assert len(lines) == 2
        assert {json.loads(line)["name"] for line in lines} == \
            {"request", "child"}


# -- the alert rule ----------------------------------------------------------------

class TestAlertRule:
    def test_threshold_rule_reads_a_real_registry_snapshot(self):
        """Shape compatibility with MetricsRegistry.to_dict, not a
        synthetic dict."""
        registry = MetricsRegistry()
        depth = registry.gauge("repro_service_queue_depth", "queued work")
        rule, = default_alert_rules(max_queue_depth=100)
        assert rule.name == "queue-depth-saturation"
        depth.set(10)
        state = rule.evaluate(registry.to_dict())
        assert not state.firing and state.value == 10
        depth.set(80)  # the comparison is >=: the bound itself fires
        state = rule.evaluate(registry.to_dict())
        assert state.firing and state.threshold == 80.0

    def test_an_unbounded_queue_has_no_rule(self):
        assert default_alert_rules(max_queue_depth=0) == []

    def test_a_metric_without_series_reads_none_and_does_not_fire(self):
        rule, = default_alert_rules(max_queue_depth=5)
        state = rule.evaluate({})
        assert state.value is None and not state.firing

    def test_a_rule_and_its_state_carry_only_what_the_rule_uses(self):
        rule, = default_alert_rules(max_queue_depth=5)
        assert rule.to_dict() == {
            "name": "queue-depth-saturation",
            "metric": "repro_service_queue_depth", "threshold": 4.0,
            "severity": "page",
            "description": "Service queue depth is at >= 80% of "
                           "max_queue_depth=5."}
        assert list(rule.evaluate({}).to_dict()) == [
            "name", "severity", "firing", "value", "threshold",
            "description"]

    @pytest.mark.parametrize("field,value", [
        ("kind", "threshold"), ("labels", {}), ("op", ">="),
        ("window_s", 60.0), ("short_window_s", 60.0), ("objective", 0.95),
        ("latency_slo_s", 0.25)])
    def test_removed_rule_fields_are_rejected(self, field, value):
        with pytest.raises(TypeError, match=field):
            AlertRule(name="depth", metric="repro_service_queue_depth",
                      threshold=1.0, **{field: value})


# -- session + service tracing ------------------------------------------------------

class TestSessionTracing:
    def test_traced_request_records_every_layer(self):
        session = fast_session()
        tracer = session.tracer
        trace_id = tracer.trace_id_for("req-1")
        root = tracer.begin("request", trace_id)
        request = ScheduleRequest(program="gemm:a")
        request.trace = root.context()
        response = session.schedule(request)
        tracer.finish(root)
        assert response.trace_id == trace_id
        record = tracer.get(trace_id)
        names = {s.name for s in record.spans}
        assert {"request", "session.schedule", "cache.lookup",
                "normalize.pipeline", "scheduler.search"} <= names
        assert any(name.startswith("pass:") for name in names)
        # Pass spans carry the PassResult facts.
        pass_span = next(s for s in record.spans
                         if s.name.startswith("pass:"))
        assert {"changed", "wall_time_s", "ir_delta"} <= \
            set(pass_span.attributes)
        session.close()

    def test_untraced_request_has_no_trace_id(self):
        session = fast_session()
        response = session.schedule(ScheduleRequest(program="gemm:a"))
        assert response.trace_id is None
        assert "trace_id" not in response.to_dict()
        assert session.tracer.stored == 0
        session.close()

    def test_reused_request_is_not_mutated_and_carries_no_stale_trace_id(self):
        """One request object sent repeatedly: the service owns the trace
        context, so the caller's object stays untouched and a fast-lane
        response reports no trace id (not the previous call's)."""
        from repro.serving import ServiceRunner

        session = fast_session()
        request = ScheduleRequest(program="gemm:a")
        with ServiceRunner(session) as runner:
            outcomes = [runner.schedule_timed(request) for _ in range(10)]
            assert request.trace is None
            assert runner.stats.fast_lane == 8
        session.close()
        traced = [response.trace_id for response, _ in outcomes
                  if response.trace_id is not None]
        # Both slow-lane calls are traced; no fast-lane hit is.
        assert len(traced) == len(set(traced)) == 2
        assert [timing.fast_lane for _, timing in outcomes] \
            == [False] * 2 + [True] * 8
        for response, timing in outcomes:
            assert response.trace_id == timing.trace_id
            echoed = response.request.trace
            assert (echoed or {}).get("trace_id") == response.trace_id


@pytest.fixture
def served(tmp_path):
    """A traced server on an ephemeral port, with a JSON access log."""
    session = fast_session()
    log_path = tmp_path / "access.jsonl"
    server = ServingServer(session, config=ServiceConfig(),
                           access_log=str(log_path))
    with server:
        yield session, server, ServingClient(server.address), log_path
    session.close()


class TestHttpTracing:
    def test_response_access_log_and_ring_buffer_share_one_trace_id(
            self, served):
        session, server, client, log_path = served
        response = client.schedule("gemm:a")
        assert response.trace_id
        listing = client.traces()
        assert listing["stored"] == 1
        assert listing["traces"][0]["trace_id"] == response.trace_id
        entry = json.loads(log_path.read_text().splitlines()[0])
        assert entry["trace_id"] == response.trace_id

    def test_access_log_names_only_recorded_traces(self, tmp_path,
                                                   monkeypatch):
        """Fast-lane hits and invalid requests log a null trace id; an
        answered miss logs its reply's; a shed one its recorded root's."""
        session = fast_session()
        log_path = tmp_path / "access.jsonl"
        server = ServingServer(session,
                               access_log=str(log_path))
        with server, ServingClient(server.address) as client:
            replies = [client.schedule("gemm:a") for _ in range(8)]
            status, _ = client.request(
                "POST", "/v1/schedule", {"program": "gemm:a", "priority": 42})
            assert status == 400
            admit = server.runner.admission.admit

            def shed_mvt(request, queue_depth, rider):
                if request.program == "mvt:a":
                    raise AdmissionError("queue-full", "queue is full", 1.0)
                return admit(request, queue_depth, rider)
            monkeypatch.setattr(server.runner.admission, "admit",
                                shed_mvt)
            with pytest.raises(ServingError) as shed:
                client.schedule("mvt:a")
            assert shed.value.status == 429
            # A schedule that fails after the request was admitted: a 500
            # whose root the slow lane recorded with status "error".
            def broken_schedule(request):
                raise RuntimeError("executor lost")
            monkeypatch.setattr(session, "schedule", broken_schedule)
            with pytest.raises(ServingError) as failed:
                client.schedule("gemm:b")
            assert failed.value.status == 500
            buffered = {t["trace_id"]: t for t in client.traces()["traces"]}
        session.close()
        entries = [json.loads(line)
                   for line in log_path.read_text().splitlines()]
        assert [e["status"] for e in entries] == [200] * 8 + [400, 429, 500]
        # Two slow-lane misses, then six untraced hits.
        assert [reply.trace_id is not None for reply in replies] \
            == [True, True] + [False] * 6
        assert [e["fast_lane"] for e in entries[:8]] == [False] * 2 + [True] * 6
        for entry, reply in zip(entries, replies):
            assert entry["trace_id"] == reply.trace_id
        assert entries[8]["trace_id"] is None
        assert buffered[entries[9]["trace_id"]]["status"] == "shed"
        assert buffered[entries[10]["trace_id"]]["status"] == "error"
        logged = [e["trace_id"] for e in entries if e["trace_id"] is not None]
        assert len(logged) == 4 and set(logged) <= set(buffered)

    def test_a_hit_is_logged_untraced_and_a_miss_traced_from_arrival(
            self, served, monkeypatch):
        """A fast-lane hit records no trace: its log line names none and the
        ring does not grow.  A miss's reply, log line and ring entry name
        the trace of its request id, whose root starts no later than the
        fast lane's cache read that missed."""
        session, _, client, log_path = served
        lookup = session.lookup_response
        looked_up = []

        def timed_lookup(request, key=None):
            looked_up.append(time.time())
            return lookup(request, key)
        monkeypatch.setattr(session, "lookup_response", timed_lookup)
        sent = time.time()
        miss = client.schedule("gemm:a")
        client.schedule("gemm:a")       # cache-served: stored for the fast lane
        stored = session.tracer.stored
        hit = client.schedule("gemm:a")
        assert session.tracer.stored == stored == 2
        entries = [json.loads(line)
                   for line in log_path.read_text().splitlines()]
        assert [e["fast_lane"] for e in entries] == [False, False, True]
        assert hit.trace_id is None and entries[2]["trace_id"] is None
        request_id = entries[0]["request_id"]
        trace_id = Tracer.trace_id_for(request_id)
        assert miss.trace_id == entries[0]["trace_id"] == trace_id
        root = session.tracer.get(trace_id).spans[0]
        assert root.name == "request" and root.parent_id is None
        assert root.attributes["request_id"] == request_id
        assert sent <= root.start_s <= looked_up[0]

    def test_full_span_tree_is_served_and_nested(self, served):
        _, _, client, _ = served
        response = client.schedule("gemm:a")
        record = client.trace(response.trace_id)
        assert record["span_count"] >= 6
        spans = {s["name"]: s for s in record["spans"]}
        assert {"request", "service.admission", "service.queue",
                "service.schedule", "session.schedule",
                "scheduler.search"} <= set(spans)
        # No batch window: the claim-to-dispatch interval has no span.
        assert "service.batch" not in spans
        # One request on one executor (the session): the span names
        # neither a batch size nor an executor.
        assert spans["service.schedule"]["attributes"] == {}
        tree = record["tree"]
        assert len(tree) == 1 and tree[0]["name"] == "request"
        # Queue wait is a measured sub-interval, not a placeholder.
        queued = spans["service.queue"]
        assert queued["duration_s"] >= 0.0
        assert queued["attributes"]["priority"] == 5

    def test_trace_listing_limit_and_unknown_id(self, served):
        _, _, client, _ = served
        client.schedule("gemm:a")
        client.schedule("mvt:a")
        assert len(client.traces(limit=1)["traces"]) == 1
        assert client.traces()["stored"] == 2
        status, payload = client.request("GET", "/v1/traces/no-such-trace")
        assert status == 404 and "unknown trace" in payload["error"]
        status, payload = client.request("GET", "/v1/traces?limit=banana")
        assert status == 400

    def test_a_saturated_queue_fires_on_alerts_and_report_at_once(self):
        """A queue at 80% of its depth names the rule on ``/alerts`` and
        on ``/v1/report`` alike, the moment it is there: both evaluate a
        fresh snapshot per request."""
        session = fast_session()
        config = ServiceConfig(max_queue_depth=5)
        with ServingServer(session, config=config) as server, \
                ServingClient(server.address) as client:
            runner = server.runner
            depth = session.metrics.get("repro_service_queue_depth")
            release = threading.Event()
            held = hold_next_request(runner, release.is_set)
            first, *queued = (
                ScheduleRequest(program=program) for program
                in ("gemm:a", "mvt:a", "atax:a", "bicg:a", "2mm:a"))
            with ThreadPoolExecutor(5) as pool:
                futures = [pool.submit(runner.schedule, first)]
                assert held.wait(60)
                assert client.alerts()["firing"] == []
                futures += [pool.submit(runner.schedule, request)
                            for request in queued]
                wait_until(lambda: depth.value == 4, 60)
                report = client.report()  # before /alerts evaluates
                alerts = client.alerts()
                release.set()
                for future in futures:
                    future.result(60)
            drained = client.alerts()
        session.close()
        assert alerts["firing"] == ["queue-depth-saturation"]
        state, = alerts["alerts"]
        assert state["value"] == 4.0 and state["threshold"] == 4.0
        assert report["alerts"] == {"firing": ["queue-depth-saturation"],
                                    "rules": 1}
        assert drained["firing"] == []

    def test_an_unbounded_queue_serves_no_rule(self, served):
        # ServiceConfig's default queue is unbounded: nothing to saturate.
        _, _, client, _ = served
        client.schedule("gemm:a")
        assert client.alerts() == {"alerts": [], "firing": [], "rules": []}
        assert client.report()["alerts"] == {"firing": [], "rules": 0}

    def test_disabled_tracing_404s_and_omits_trace_ids(self, tmp_path):
        session = fast_session()
        session.tracer.enabled = False
        log_path = tmp_path / "access.jsonl"
        server = ServingServer(session, access_log=str(log_path))
        with server:
            client = ServingClient(server.address)
            response = client.schedule("gemm:a")
            assert response.trace_id is None
            status, _ = client.request("GET", "/v1/traces")
            assert status == 404
        entry = json.loads(log_path.read_text().splitlines()[0])
        assert entry["trace_id"] is None
        session.close()

    def test_trace_routes_follow_the_tracer_switch(self, served):
        session, _, client, _ = served
        trace_id = client.schedule("gemm:a").trace_id
        paths = ("/v1/traces", f"/v1/traces/{trace_id}")
        for enabled, status in ((False, 404), (True, 200)):
            session.tracer.enabled = enabled
            for path in paths:
                assert client.request("GET", path)[0] == status

    def test_trace_dump_cli_exports_chrome_and_jsonl(self, served, tmp_path,
                                                     capsys):
        _, server, client, _ = served
        client.schedule("gemm:a")
        chrome_path = tmp_path / "trace.json"
        assert cli_main(["trace-dump", "--url", server.address,
                         "--output", str(chrome_path)]) == 0
        capsys.readouterr()  # drop the "wrote N trace(s)" status line
        doc = json.loads(chrome_path.read_text())
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(slices) >= 6
        assert {"request", "service.schedule"} <= \
            {e["name"] for e in slices}
        assert cli_main(["trace-dump", "--url", server.address,
                         "--format", "jsonl"]) == 0
        lines = [json.loads(line) for line
                 in capsys.readouterr().out.splitlines() if line.strip()]
        assert len(lines) >= 6
        assert len({line["trace_id"] for line in lines}) == 1
