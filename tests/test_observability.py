"""Tests of the observability subsystem: the metrics registry and its
instruments (property-based histogram invariants included), concurrency
safety across threads, the wiring through Session / ServiceRunner, and the
end-to-end ``/metrics`` scrape."""

import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from helpers import (fast_session, hold_next_request,
                     observation_streams, parse_prometheus_text,
                     prometheus_sample, uniform_buckets)

from repro.api import Session
from repro.fuzz import Oracle
from repro.observability import (MetricsError, MetricsRegistry,
                                 render_registry_dict)
from repro.serving import (ServiceConfig, ServingClient, ServingError,
                           ServingServer)


# -- the instruments -----------------------------------------------------------------

class TestCounter:
    def test_counts_and_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_t_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(MetricsError):
            counter.inc(-1)

    def test_labelled_series_are_independent(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_t_total", "", ("outcome",))
        counter.labels("hit").inc(3)
        counter.labels(outcome="miss").inc()
        assert counter.labels("hit").value == 3
        assert counter.labels("miss").value == 1

    def test_label_arity_is_checked(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_t_total", "", ("a", "b"))
        with pytest.raises(MetricsError):
            counter.labels("only-one")
        with pytest.raises(MetricsError):
            counter.labels(a="x", wrong="y")


class TestGauge:
    def test_set_replaces_the_value(self):
        gauge = MetricsRegistry().gauge("repro_depth", "")
        gauge.set(5)
        gauge.set(4)
        assert gauge.value == 4


class TestRegistry:
    def test_declaration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_t_total", "help", ("x",))
        second = registry.counter("repro_t_total", "help", ("x",))
        assert first is second

    def test_conflicting_redeclaration_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_t_total", "")
        with pytest.raises(MetricsError):
            registry.gauge("repro_t_total", "")
        registry.histogram("repro_h", "", buckets=(1.0, 2.0))
        with pytest.raises(MetricsError):
            registry.histogram("repro_h", "", buckets=(1.0, 3.0))

    def test_invalid_names_raise(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricsError):
            registry.counter("0bad", "")
        with pytest.raises(MetricsError):
            registry.counter("repro_ok", "", ("bad-label",))

    def test_histogram_bucket_validation(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricsError):
            registry.histogram("repro_h1", "", buckets=())
        with pytest.raises(MetricsError):
            registry.histogram("repro_h2", "", buckets=(2.0, 1.0))
        with pytest.raises(MetricsError):
            registry.histogram("repro_h3", "", buckets=(1.0, math.inf))

    def test_render_and_parse_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("repro_a_total", "a help", ("k",)).labels("v").inc(2)
        registry.gauge("repro_g", "g help").set(1.5)
        histogram = registry.histogram("repro_h_seconds", "",
                                       buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(50.0)
        parsed = parse_prometheus_text(registry.render())
        assert prometheus_sample(parsed, "repro_a_total", k="v") == 2
        assert prometheus_sample(parsed, "repro_g") == 1.5
        assert prometheus_sample(parsed, "repro_h_seconds_count") == 2
        assert prometheus_sample(parsed, "repro_h_seconds_bucket",
                                 le="0.1") == 1
        assert prometheus_sample(parsed, "repro_h_seconds_bucket",
                                 le="+Inf") == 2
        assert parsed["repro_h_seconds"]["type"] == "histogram"

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        # Includes the adversarial literal backslash-then-'n' sequence,
        # which a wrong-order unescape would decode as a newline.
        value = 'a"b\\c\nd\\ne'
        registry.counter("repro_e_total", "", ("who",)).labels(value).inc()
        parsed = parse_prometheus_text(registry.render())
        assert prometheus_sample(parsed, "repro_e_total", who=value) == 1

    def test_unlabelled_instruments_render_zero_before_first_use(self):
        registry = MetricsRegistry()
        registry.counter("repro_idle_total", "")
        parsed = parse_prometheus_text(registry.render())
        assert prometheus_sample(parsed, "repro_idle_total") == 0


# -- property-based histogram invariants ---------------------------------------------

class TestHistogramProperties:
    """Satellite: Hypothesis-style random-stream invariants over the
    fixed-bucket histogram (generators in ``tests/helpers.py``)."""

    def test_bucket_monotonicity_sum_and_count(self):
        for index, (shape, stream) in enumerate(
                observation_streams(seed=0xC60, count=40)):
            bounds, _ = uniform_buckets(stream)
            registry = MetricsRegistry()
            histogram = registry.histogram("repro_p_seconds", "",
                                           buckets=bounds)
            for value in stream:
                histogram.observe(value)

            # Invariant 1: count and sum match the raw stream exactly.
            assert histogram.count == len(stream), (index, shape)
            assert histogram.sum == pytest.approx(sum(stream)), (index, shape)

            # Invariant 2: rendered cumulative buckets are monotone and the
            # +Inf bucket equals the count.
            parsed = parse_prometheus_text(registry.render())
            samples = parsed["repro_p_seconds"]["samples"]
            cumulative = [
                value for (name, labels), value in sorted(
                    samples.items(),
                    key=lambda item: float(dict(item[0][1]).get("le", "inf")
                                           .replace("+Inf", "inf")))
                if name.endswith("_bucket")]
            assert cumulative == sorted(cumulative), (index, shape)
            assert cumulative[-1] == len(stream), (index, shape)

    def test_observations_beyond_the_last_bound_overflow_to_inf(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_p", "", buckets=(1.0, 2.0))
        histogram.observe(99.0)
        assert histogram.count == 1
        # The overflow slot follows the finite buckets...
        assert registry.to_dict()["repro_p"]["series"][0]["counts"] \
            == [0, 0, 1]
        # ...and renders only in the +Inf bucket.
        parsed = parse_prometheus_text(registry.render())
        assert prometheus_sample(parsed, "repro_p_bucket", le="2") == 0
        assert prometheus_sample(parsed, "repro_p_bucket", le="+Inf") == 1

    def test_an_observation_on_a_bound_counts_in_that_bucket(self):
        # Prometheus's ``le`` is inclusive: 1.0 belongs to le="1".
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_p", "", buckets=(1.0, 2.0))
        for value in (1.0, 2.0):
            histogram.observe(value)
        assert registry.to_dict()["repro_p"]["series"][0]["counts"] \
            == [1, 1, 0]
        parsed = parse_prometheus_text(registry.render())
        assert prometheus_sample(parsed, "repro_p_bucket", le="1") == 1
        assert prometheus_sample(parsed, "repro_p_bucket", le="2") == 2


# -- snapshots -----------------------------------------------------------------------

def _sample_registry(observations):
    registry = MetricsRegistry()
    registry.counter("repro_m_total", "", ("k",)).labels("x").inc(2)
    registry.gauge("repro_m_depth", "").set(3)
    histogram = registry.histogram("repro_m_seconds", "", ("p",),
                                   buckets=(0.5, 1.5))
    for value in observations:
        histogram.labels("5").observe(value)
    return registry


class TestSnapshots:
    def test_histogram_series_carry_counts_and_sum_only(self):
        snapshot = _sample_registry([0.1, 1.0, 2.0]).to_dict()
        (series,) = snapshot["repro_m_seconds"]["series"]
        assert set(series) == {"labels", "counts", "sum"}
        assert series["counts"] == [1, 1, 1]

    def test_observe_takes_a_value_only(self):
        histogram = MetricsRegistry().histogram("repro_o_seconds", "",
                                                buckets=(1.0,))
        with pytest.raises(TypeError):
            histogram.observe(0.5, exemplar="0" * 32)
        with pytest.raises(TypeError):
            histogram.labels().observe(0.5, exemplar="0" * 32)
        assert histogram.count == 0

    def test_snapshot_is_json_serializable(self):
        registry = _sample_registry([0.2])
        round_tripped = json.loads(json.dumps(registry.to_dict()))
        assert round_tripped == registry.to_dict()
        assert render_registry_dict(round_tripped) == registry.render()


# -- concurrency: threads ------------------------------------------------------------

_STRESS_THREADS = 8
_STRESS_INCREMENTS = 2000


def _thread_stress(registry, barrier):
    counter = registry.counter("repro_s_total", "", ("worker",))
    histogram = registry.histogram("repro_s_seconds", "", buckets=(0.5,))
    gauge = registry.gauge("repro_s_gauge", "")
    barrier.wait(timeout=30)
    for index in range(_STRESS_INCREMENTS):
        counter.labels("shared").inc()
        histogram.observe(index % 2)  # alternates below/above the bound
        gauge.set(index)  # every thread's last write is the same value


class TestConcurrency:
    def test_no_lost_increments_across_threads(self):
        """Satellite: N threads hammering one shared registry."""
        registry = MetricsRegistry()
        barrier = threading.Barrier(_STRESS_THREADS)
        with ThreadPoolExecutor(max_workers=_STRESS_THREADS) as pool:
            futures = [pool.submit(_thread_stress, registry, barrier)
                       for _ in range(_STRESS_THREADS)]
            for future in futures:
                future.result(timeout=60)
        expected = _STRESS_THREADS * _STRESS_INCREMENTS
        assert registry.counter("repro_s_total", "", ("worker",)) \
            .labels("shared").value == expected
        histogram = registry.histogram("repro_s_seconds", "", buckets=(0.5,))
        assert histogram.count == expected
        assert histogram.sum == expected / 2  # half the observations are 1.0
        assert registry.gauge("repro_s_gauge", "").value \
            == _STRESS_INCREMENTS - 1


# -- session and cache wiring ---------------------------------------------------------

class TestSessionWiring:
    def test_cache_hits_and_misses_are_counted(self):
        session = fast_session()
        session.schedule("gemm:a")
        session.schedule("gemm:a")
        metric = session.metrics.counter(
            "repro_cache_requests_total", "", ("level", "outcome"))
        assert metric.labels("normalization", "miss").value == 1
        assert metric.labels("normalization", "hit").value == 1
        assert metric.labels("schedule", "miss").value == 1
        assert metric.labels("schedule", "hit").value == 1
        session.close()

    def test_metrics_agree_with_session_report(self):
        session = fast_session()
        session.schedule("gemm:a")
        session.schedule("gemm:b")  # normalized-equivalent: schedule hit
        report = session.report()
        metric = session.metrics.counter(
            "repro_cache_requests_total", "", ("level", "outcome"))
        assert metric.labels("schedule", "hit").value \
            == report.schedule_cache_hits
        assert metric.labels("normalization", "miss").value \
            == report.normalization_misses
        calls = session.metrics.counter("repro_session_calls_total", "",
                                        ("kind",))
        assert calls.labels("schedule").value == report.schedule_calls
        session.close()

    def test_a_snapshot_is_a_read(self):
        # No instrument updates itself when the registry is read: two
        # snapshots of an idle session are equal.
        session = fast_session()
        session.schedule("gemm:a")
        first = session.metrics.to_dict()
        assert session.metrics.to_dict() == first
        session.close()


# -- the catalog: every family has a reader ------------------------------------------

def _catalog_rows():
    """``(name, read by)`` for each row of the metric catalog in
    ``docs/observability.md``."""
    path = os.path.join(os.path.dirname(__file__), "..", "docs",
                        "observability.md")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    section = text.split("## The metric catalog", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if line.startswith("| `repro_"):
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            rows.append((cells[0].strip("`"), cells[-1]))
    return rows


def test_the_catalog_lists_every_declared_family():
    # Every layer that declares instruments on a session's registry: the
    # session and its cache, a server's runner and admission control, and
    # a fuzz oracle.
    session = Session()
    with ServingServer(session):
        Oracle(session=session)
        declared = session.metrics.names()
    session.close()
    assert sorted(name for name, _ in _catalog_rows()) == declared
    # 11 before the batch count and the largest-batch gauge went.
    assert len(declared) == 9


def test_every_catalog_row_names_its_reader():
    rows = _catalog_rows()
    assert rows
    assert [name for name, reader in rows if not reader] == []


# -- the end-to-end scrape ------------------------------------------------------------

class TestMetricsOverHttp:
    def test_scrape_reflects_cold_warm_coalesced_and_shed_traffic(self):
        """Satellite: drive every traffic class through the server and hold
        the ``/metrics`` scrape to the client-observed request mix."""
        session = fast_session()
        config = ServiceConfig(max_queue_depth=1, retry_after_s=0.05)
        with ServingServer(session, config=config) as server:
            client = ServingClient(server.address)
            client.schedule("gemm:a", priority=1)          # cold
            client.schedule("gemm:a", priority=1)          # warm (cache hit)
            client.schedule("gemm:b", priority=3)          # warm equivalent

            # A coalescing burst: identical requests submitted concurrently.
            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(lambda _: client.schedule("atax:a", priority=2),
                              range(4)))

            # Saturate the 1-deep queue with distinct cold programs: the
            # first runs once the server has shed one of the others.
            runner = server.runner
            hold_next_request(runner, lambda: runner.stats.rejected >= 1)

            def flood(index):
                try:
                    client.schedule("gemm:a",
                                    {"NI": 24 + index, "NJ": 24, "NK": 24},
                                    priority=9)
                    return 200
                except ServingError as error:
                    return error.status
            with ThreadPoolExecutor(max_workers=8) as pool:
                statuses = list(pool.map(flood, range(8)))
            served_p9 = statuses.count(200)
            shed = statuses.count(429)
            assert shed >= 1 and served_p9 + shed == 8

            parsed = parse_prometheus_text(client.metrics())
            report = client.report()

        # Per-priority end-to-end latency counts match what the client saw.
        latency = "repro_request_latency_seconds_count"
        assert prometheus_sample(parsed, latency, priority="1") == 2
        assert prometheus_sample(parsed, latency, priority="3") == 1
        assert prometheus_sample(parsed, latency, priority="2") == 4
        assert prometheus_sample(parsed, latency, priority="9") == served_p9

        # Admission counters match the shed 429s; the queue is drained.
        assert prometheus_sample(parsed, "repro_admission_shed_total",
                                 reason="queue-full") == shed
        assert prometheus_sample(parsed, "repro_service_queue_depth") == 0

        # /v1/report renders from the same registry: the two views agree.
        assert report["service"]["rejected"] == shed
        assert report["service"]["requests"] == prometheus_sample(
            parsed, "repro_admission_admitted_total") + prometheus_sample(
            parsed, "repro_cache_requests_total", level="response",
            outcome="hit")
        assert report["service"]["coalesced"] == prometheus_sample(
            parsed, "repro_service_coalesced_total")
        assert report["admission"]["rejected_queue_full"] == shed

        # Cache instruments from the session appear in the scrape.
        assert prometheus_sample(parsed, "repro_cache_requests_total",
                                 level="schedule", outcome="hit") >= 2
        session.close()

    def test_report_keys_are_byte_compatible(self):
        """Every /v1/report service and admission key, each an integer."""
        session = fast_session()
        with ServingServer(session) as server:
            client = ServingClient(server.address)
            client.schedule("gemm:a")
            report = client.report()
        assert set(report["service"]) == {
            "requests", "coalesced", "scheduled", "fast_lane", "errors",
            "rejected"}
        assert all(isinstance(value, int)
                   for value in report["service"].values())
        assert set(report["admission"]) == {
            "admitted", "rejected_queue_full", "rejected_client_limit"}
        assert all(isinstance(value, int)
                   for value in report["admission"].values())
        session.close()

    def test_fresh_service_over_a_reused_session_reports_zero(self):
        """Registry counters are cumulative (Prometheus semantics), but a
        fresh service's /v1/report still starts at zero: the stats views
        baseline themselves at construction."""
        session = fast_session()
        with ServingServer(session) as server:
            client = ServingClient(server.address)
            client.schedule("gemm:a")
            assert client.report()["service"]["requests"] == 1
        with ServingServer(session) as server:  # new server, same session
            report = ServingClient(server.address).report()
        assert report["service"]["requests"] == 0
        assert report["admission"]["admitted"] == 0
        cumulative = session.metrics.counter(
            "repro_admission_admitted_total", "")
        assert cumulative.value == 1  # the scrape view never resets
        session.close()

    def test_access_log_records_request_ids_and_outcomes(self, tmp_path):
        log_path = tmp_path / "access.jsonl"
        session = fast_session()
        with ServingServer(session, access_log=str(log_path)) as server:
            client = ServingClient(server.address)
            client.schedule("gemm:a", priority=2, client="logged")
            with pytest.raises(ServingError):
                client.schedule("not-a-workload")
        entries = [json.loads(line)
                   for line in log_path.read_text().splitlines()]
        assert len(entries) == 2
        ok, bad = entries
        assert ok["outcome"] == "ok" and ok["status"] == 200
        assert ok["priority"] == 2 and ok["client"] == "logged"
        assert ok["program"] == "gemm:a"
        assert ok["queue_wait_s"] >= 0 and ok["duration_s"] > 0
        assert bad["outcome"] == "invalid" and bad["status"] == 400
        assert ok["request_id"] != bad["request_id"]
        assert ok["request_id"].split("-")[0] \
            == bad["request_id"].split("-")[0]
        session.close()


# -- the response fast lane -----------------------------------------------------------

class TestFastLaneObservability:
    def test_fast_lane_and_full_path_views_agree(self, tmp_path):
        """Acceptance: /metrics, /v1/report, and the access log report the
        same fast-lane vs full-Session hit counts for the same traffic."""
        log_path = tmp_path / "access.jsonl"
        session = fast_session()
        with ServingServer(session, access_log=str(log_path)) as server:
            client = ServingClient(server.address)
            # 1st: cold schedule.  2nd: fully cache-served through the
            # session (stores the encoded response).  3rd and 4th: served
            # by the zero-parse fast lane.
            for _ in range(4):
                client.schedule("gemm:a")
            parsed = parse_prometheus_text(client.metrics())
            report = client.report()
            traces = client.traces()["traces"]
        entries = [json.loads(line)
                   for line in log_path.read_text().splitlines()]
        session.close()

        logged_fast = [entry for entry in entries if entry["fast_lane"]]
        logged_slow = [entry for entry in entries if not entry["fast_lane"]]
        assert len(entries) == 4
        assert len(logged_fast) == 2 and len(logged_slow) == 2

        # The service view and the scrape agree with the access log.
        assert report["service"]["fast_lane"] == 2
        assert report["service"]["requests"] == 4
        assert report["service"]["scheduled"] == 4
        assert prometheus_sample(parsed, "repro_admission_admitted_total") \
            == 2

        # The session's response-cache counters tell the same story: two
        # probes missed (cold + first warm repeat), two hit.
        assert report["response_cache_hits"] == 2
        assert report["response_cache_misses"] == 2
        assert prometheus_sample(parsed, "repro_cache_requests_total",
                                 level="response", outcome="hit") == 2
        assert prometheus_sample(parsed, "repro_cache_requests_total",
                                 level="response", outcome="miss") == 2
        # The response-hit series is the one count of a fast-lane hit: the
        # session-call family has no fast-lane kind beside it.
        call_kinds = {dict(labels).get("kind") for _, labels
                      in parsed["repro_session_calls_total"]["samples"]}
        assert "fast_lane" not in call_kinds and "schedule" in call_kinds

        # Every admitted request (fast lane included) is in the latency
        # distribution; only the slow-lane requests have a trace in the
        # ring buffer (a hit is answered, not traced).
        assert prometheus_sample(parsed, "repro_request_latency_seconds_count",
                                 priority="5") == 4
        assert [entry["trace_id"] for entry in logged_fast] == [None, None]
        by_id = {record["trace_id"]: record for record in traces}
        assert set(by_id) == {entry["trace_id"] for entry in logged_slow}
        for entry in logged_slow:
            assert by_id[entry["trace_id"]]["span_count"] > 1

    @staticmethod
    def _slow_and_fast_lane_bytes(body):
        """POST ``body`` three times to an untraced server (so responses
        carry no per-request trace ids): cold, fully cache-served through
        the slow lane (stored), then served by the fast lane."""
        import urllib.request

        from repro.observability import Tracer

        session = fast_session(tracer=Tracer(enabled=False))
        with ServingServer(session) as server:
            data = json.dumps(body).encode("utf-8")

            def post():
                request = urllib.request.Request(
                    server.address + "/v1/schedule", data=data,
                    headers={"Content-Type": "application/json"})
                with urllib.request.urlopen(request) as response:
                    return response.read()

            post()
            slow_bytes = post()
            fast_bytes = post()
            report = ServingClient(server.address).report()
        session.close()
        assert report["service"]["fast_lane"] == 1
        return slow_bytes, fast_bytes

    def test_fast_lane_bytes_equal_slow_path_bytes(self):
        """The fast lane serves byte-identical JSON to the slow path."""
        slow_bytes, fast_bytes = self._slow_and_fast_lane_bytes(
            {"program": "gemm:a"})
        assert fast_bytes == slow_bytes

    def test_client_supplied_trace_is_dropped_in_both_lanes(self):
        """``trace`` in an HTTP body is unvalidated outside input: it must
        not name the reply's trace id (nor split the lanes' bytes)."""
        slow_bytes, fast_bytes = self._slow_and_fast_lane_bytes(
            {"program": "gemm:a",
             "trace": {"trace_id": "evil-client-id", "span_id": "x"}})
        assert fast_bytes == slow_bytes
        assert b"evil-client-id" not in slow_bytes
        assert "trace_id" not in json.loads(fast_bytes)
