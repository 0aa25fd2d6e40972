"""Tests for the serving queue's drain order and the options removed from
the service, the measurement feedback, the worker pool and the background
alert monitor included."""

import importlib
import json
import os
import subprocess
import sys
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest
from helpers import StubSession, fast_session, hold_next_request, queue_behind

from repro.api import ScheduleRequest, Session, SessionReport, TuningDatabase
from repro.serving import (ServiceConfig, ServiceRunner, ServingClient,
                           ServingServer, request_fingerprint)
from repro.serving import cli
from repro.serving.cli import build_parser
from repro.serving.service import _Pending


# -- removed options fail loudly, removed request keys are ignored ------------------

@pytest.mark.parametrize("flags", [["--adaptive"], ["--aging-interval", "1"],
                                   ["--push-url", "http://x"],
                                   ["--push-interval", "1"],
                                   ["--batch-window", "0.01"],
                                   ["--policy", "weighted-fair"],
                                   ["--metrics"], ["--no-metrics"],
                                   ["--alert-interval", "5"],
                                   ["--latency-slo", "0.25"],
                                   ["--max-batch", "16"]],
                         ids=lambda flags: flags[0])
def test_removed_serve_flags_exit_with_a_usage_error(flags, capsys):
    with pytest.raises(SystemExit) as caught:
        build_parser().parse_args(["serve", *flags])
    assert caught.value.code == 2
    error = capsys.readouterr().err
    assert error.startswith("usage: python -m repro.serving")
    assert f"unrecognized arguments: {' '.join(flags)}" in error


def test_serve_help_lists_no_removed_flag(capsys):
    with pytest.raises(SystemExit) as caught:
        build_parser().parse_args(["serve", "--help"])
    assert caught.value.code == 0
    usage = capsys.readouterr().out
    assert "--max-queue-depth" in usage
    for flag in ("--adaptive", "--aging-interval", "--push-url",
                 "--push-interval", "--batch-window", "--policy",
                 "--metrics", "--no-metrics", "--workers",
                 "--alert-interval", "--latency-slo", "--max-batch"):
        assert flag not in usage


def test_serve_workers_exits_with_a_usage_error():
    # The service schedules in-process: there is no worker pool to size.
    source = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=source)
    done = subprocess.run(
        [sys.executable, "-m", "repro.serving", "serve", "--workers", "2"],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 2
    assert done.stderr.startswith("usage: python -m repro.serving")
    assert "unrecognized arguments: --workers 2" in done.stderr
    assert done.stdout == ""


def test_the_alert_monitor_is_gone():
    # The one rule is evaluated per request: no thread samples the registry.
    with pytest.raises(ImportError):
        from repro.observability import AlertMonitor  # noqa: F401


def test_the_worker_pool_is_gone():
    with pytest.raises(ImportError):
        from repro.serving import WorkerPool  # noqa: F401
    with pytest.raises(ImportError):
        importlib.import_module("repro.serving.workers")


def test_the_report_has_no_pool_and_ignores_a_workers_query():
    session = fast_session()
    with ServingServer(session) as server:
        with ServingClient(server.address) as client:
            client.schedule("gemm:a")
            report = client.report()
            status, scattered = client.request("GET", "/v1/report?workers=1")
    session.close()
    assert "pool" not in report
    assert status == 200
    assert scattered.keys() == report.keys()


@pytest.mark.parametrize("field,value", [("policy_weights", {9: 5.0}),
                                         ("aging_interval_s", 0.5),
                                         ("adaptive", True),
                                         ("adaptive_interval_s", 1.0),
                                         ("batch_window_s", 0.01),
                                         ("max_workers", 4),
                                         ("fast_lane", False),
                                         ("policy", "weighted-fair"),
                                         ("latency_slo_s", 0.25),
                                         ("max_batch_size", 16)])
def test_removed_service_config_fields_are_rejected(field, value):
    with pytest.raises(TypeError, match=field):
        ServiceConfig(**{field: value})


@pytest.mark.parametrize("field,value", [("max_queue_depth", -1),
                                         ("max_client_inflight", -1),
                                         ("retry_after_s", -0.5)])
def test_out_of_range_service_config_values_are_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        ServiceConfig(**{field: value})


@pytest.mark.parametrize("flags", [["--max-queue-depth", "-1"],
                                   ["--max-client-inflight", "-1"]],
                         ids=lambda flags: " ".join(flags))
def test_serve_exits_2_on_an_out_of_range_value(flags, capsys, monkeypatch):
    def boot(*args, **kwargs):
        raise AssertionError("serve booted a server")

    monkeypatch.setattr(cli, "ServingServer", boot)
    monkeypatch.setattr(cli, "_build_session", boot)
    assert cli.main(["serve", *flags]) == 2
    error = capsys.readouterr().err
    assert error.startswith("serve: ") and len(error.splitlines()) == 1


@pytest.mark.parametrize("keyword,value", [("push_url", "http://x"),
                                           ("push_interval_s", 1.0),
                                           ("expose_metrics", False),
                                           ("expose_traces", False),
                                           ("alert_rules", []),
                                           ("alert_interval_s", 5.0)])
def test_removed_server_keywords_are_rejected(keyword, value):
    # Rejected by the signature, before a session is touched or a port bound.
    with pytest.raises(TypeError, match=keyword):
        ServingServer(None, **{keyword: value})


@pytest.mark.parametrize("name", ["QueuePolicy", "PolicyError",
                                  "create_policy", "policy_names"])
def test_removed_policy_exports_are_gone(name):
    serving = importlib.import_module("repro.serving")
    assert name not in serving.__all__
    with pytest.raises(ImportError, match=name):
        exec(f"from repro.serving import {name}", {})


def test_the_policy_module_is_gone():
    with pytest.raises(ModuleNotFoundError, match="repro.serving.policy"):
        importlib.import_module("repro.serving.policy")


@pytest.mark.parametrize("flags,tracing", [([], True), (["--no-trace"], False)],
                         ids=["default", "no-trace"])
def test_serve_hands_the_server_its_session_and_nothing_else(
        flags, tracing, capsys, monkeypatch):
    # The banner names no policy or metrics switch, and the trace routes
    # follow the session's tracer, the one switch --no-trace sets.
    session = StubSession()
    session.tracer.enabled = True
    session.database = []
    session.close = lambda: None
    built = []

    class Server:
        address = "http://127.0.0.1:0"

        def __init__(self, served, **kwargs):
            built.append((served, kwargs))

        def start(self):
            pass

        def serve_forever(self):
            pass

    monkeypatch.setattr(cli, "ServingServer", Server)
    monkeypatch.setattr(cli, "_build_session", lambda args: session)
    assert cli.main(["serve", *flags]) == 0
    (served, kwargs), = built
    assert served is session and session.tracer.enabled is tracing
    assert set(kwargs) == {"host", "port", "config", "access_log"}
    banner = capsys.readouterr().out
    assert banner.startswith("serving on http://127.0.0.1:0 (")
    assert f"tracing={'on' if tracing else 'off'})" in banner
    assert "policy=" not in banner and "metrics=" not in banner


def test_a_deadline_key_is_ignored():
    with_key = ScheduleRequest.from_dict(
        {"program": "gemm:a", "deadline_s": 0.5})
    without = ScheduleRequest.from_dict({"program": "gemm:a"})
    assert with_key == without
    assert request_fingerprint(with_key) == request_fingerprint(without)


def test_a_deadline_keyword_is_rejected():
    with pytest.raises(TypeError, match="deadline_s"):
        ScheduleRequest(program="gemm:a", deadline_s=0.5)


_FEEDBACK_REPORT_KEYS = ("feedback_applied", "feedback_added",
                         "feedback_skipped")


def test_feedback_keys_of_older_reports_are_ignored():
    # Reports written while the session took measurement feedback load as
    # the report without it.
    without = SessionReport(schedule_calls=3, database_version="2:ab")
    older = {**without.to_dict(),
             **{key: 1 for key in _FEEDBACK_REPORT_KEYS}}
    assert SessionReport.from_dict(older) == without


@pytest.mark.parametrize("key", _FEEDBACK_REPORT_KEYS)
def test_a_feedback_report_keyword_is_rejected(key):
    with pytest.raises(TypeError, match=key):
        SessionReport(**{key: 1})


@pytest.mark.parametrize("owner, name", [
    (Session, "record_measurement"), (Session, "measurement_feedback"),
    (TuningDatabase, "record_measurement")],
    ids=lambda value: getattr(value, "__name__", value))
def test_the_feedback_entry_points_are_gone(owner, name):
    # Transfer ranks by embedding distance alone: nothing takes a measured
    # runtime back into the database.
    assert not hasattr(owner, name)


# -- drain order through the service ------------------------------------------------

def _drain(runner, requests):
    """Stack ``requests`` behind a held gate request, then release it."""
    queue_behind(runner, ScheduleRequest(program="gate"), requests)


def _drive(config, requests):
    session = StubSession()
    with ServiceRunner(session, config) as runner:
        _drain(runner, requests)
    assert session.order[0] == "gate"
    return session.order[1:]


class TestDrainOrder:
    def test_each_class_drains_in_arrival_order(self):
        mix = [ScheduleRequest(program=f"{name}-{i}", priority=priority)
               for i in range(1, 4)
               for name, priority in (("high", 2), ("low", 7))]
        order = _drive(ServiceConfig(), mix)
        assert sorted(order) == sorted(request.program for request in mix)
        for name in ("high", "low"):
            assert [program for program in order if program.startswith(name)] \
                == [f"{name}-{i}" for i in range(1, 4)]

    def test_strict_priority_sorts_by_class_then_arrival(self):
        mix = [ScheduleRequest(program=program, priority=priority)
               for program, priority in (("five-1", 5), ("zero-1", 0),
                                         ("nine-1", 9), ("zero-2", 0),
                                         ("five-2", 5))]
        order = _drive(ServiceConfig(), mix)
        assert order == ["zero-1", "zero-2", "five-1", "five-2", "nine-1"]

    def test_strict_priority_parks_the_low_class_behind_the_burst(self):
        mix = ([ScheduleRequest(program=f"starved-{i}", priority=9)
                for i in range(1, 3)]
               + [ScheduleRequest(program=f"bulk-{i}", priority=0)
                  for i in range(1, 13)])
        order = _drive(ServiceConfig(), mix)
        assert order[-2:] == ["starved-1", "starved-2"]

    def test_priorities_outside_the_classes_sort_by_value(self):
        mix = [ScheduleRequest(program=program, priority=priority)
               for program, priority in (("twelve", 12), ("three", 3),
                                         ("minus-one", -1), ("nine", 9))]
        order = _drive(ServiceConfig(), mix)
        assert order == ["minus-one", "three", "nine", "twelve"]

    def test_pending_entries_order_by_priority_then_arrival(self):
        request = ScheduleRequest(program="p")
        first, second, urgent = (_Pending("k", request, priority, seq)
                                 for priority, seq in ((5, 1), (5, 2),
                                                       (0, 3)))
        assert first < second and not second < first
        assert urgent < first and not first < urgent


class TestBatcherTakesOneRequestAtATime:
    """The batcher takes the most urgent queued request, schedules it, and
    waits for nothing else."""

    def test_sequential_slow_lane_requests_wait_without_a_timeout(self):
        session = StubSession()
        with ServiceRunner(session) as runner:
            timeouts = []
            wait = runner._cond.wait

            def recording_wait(timeout=None):
                timeouts.append(timeout)
                return wait(timeout)

            runner._cond.wait = recording_wait
            for index in range(20):
                runner.schedule(ScheduleRequest(program=f"p-{index}"))
        assert runner.stats.scheduled == 20 and len(session.order) == 20
        # The batcher waited for requests, never with a timeout.
        assert timeouts and set(timeouts) == {None}

    @pytest.mark.parametrize("grouped", [False, True],
                             ids=["interleaved", "least-urgent-first"])
    def test_queued_requests_go_out_one_at_a_time_in_priority_order(
            self, grouped):
        mix = [ScheduleRequest(program=f"{name}-{i}", priority=priority)
               for i in range(1, 4)
               for name, priority in (("low", 7), ("high", 2), ("mid", 5))]
        mix.append(ScheduleRequest(program="high-4", priority=2))
        if grouped:  # a stable sort keeps each class's arrival order
            mix.sort(key=lambda request: -request.priority)
        session = StubSession()
        with ServiceRunner(session) as runner:
            _drain(runner, mix)
        assert runner.stats.scheduled == 11
        assert session.order == ["gate", "high-1", "high-2", "high-3",
                                 "high-4", "mid-1", "mid-2", "mid-3",
                                 "low-1", "low-2", "low-3"]

    def test_a_rekeyed_leader_is_dispatched_once(self):
        # The urgent rider re-keys its queued priority-9 leader in place.
        requests = ([ScheduleRequest(program="dup", priority=9)]
                    + [ScheduleRequest(program=f"other-{i}", priority=5)
                       for i in range(1, 4)]
                    + [ScheduleRequest(program="dup", priority=0)])
        session = StubSession()
        with ServiceRunner(session) as runner:
            _drain(runner, requests)
        assert session.order == ["gate", "dup", "other-1", "other-2",
                                 "other-3"]
        assert runner.stats.scheduled == 5
        assert runner.stats.coalesced == 1
        assert runner._queue == []

    def test_a_less_urgent_rider_leaves_its_leader_in_place(self):
        requests = [ScheduleRequest(program="dup", priority=0),
                    ScheduleRequest(program="other", priority=5),
                    ScheduleRequest(program="dup", priority=9)]
        order = _drive(ServiceConfig(), requests)
        assert order == ["dup", "other"]

    def test_an_equally_urgent_rider_keeps_its_leaders_place(self):
        # Moving the leader would give it a fresh arrival number and send
        # it behind the requests queued after it at the same priority.
        requests = ([ScheduleRequest(program="dup", priority=5)]
                    + [ScheduleRequest(program=f"other-{i}", priority=5)
                       for i in range(1, 3)]
                    + [ScheduleRequest(program="dup", priority=5)])
        order = _drive(ServiceConfig(), requests)
        assert order == ["dup", "other-1", "other-2"]

    def test_a_rider_of_a_claimed_leader_queues_nothing(self):
        # The held gate is already claimed: its urgent rider waits for the
        # schedule in flight instead of queueing the gate again.
        session = StubSession()
        with ServiceRunner(session, ServiceConfig()) as runner:
            queue_behind(runner, ScheduleRequest(program="gate", priority=9),
                         [ScheduleRequest(program="gate", priority=0),
                          ScheduleRequest(program="other", priority=5)])
        assert session.order == ["gate", "other"]
        assert runner.stats.coalesced == 1 and runner.stats.scheduled == 2


def test_a_runner_reads_its_sessions_registry_and_tracer():
    session = StubSession()
    with ServiceRunner(session) as runner:
        runner.schedule(ScheduleRequest(program="p"))
    assert runner.metrics is session.metrics
    assert session.metrics.counter(
        "repro_admission_admitted_total", "").value == 1
    assert session.metrics.counter(
        "repro_service_scheduled_total", "").value == 1
    # The stub's tracer is off: the miss opened no trace.
    assert session.tracer.traces() == []


# -- Retry-After rounding (regression) ----------------------------------------------

class TestRetryAfterRounding:
    @pytest.mark.parametrize("hint,header", [(2.5, "3"), (0.05, "1")])
    def test_half_second_hints_round_up_not_to_even(self, hint, header):
        """round() uses banker's rounding (2.5 -> 2, 0.5 -> 0); the header
        must ceil so the hint never undercuts the configured backoff and
        never tells clients to retry immediately."""
        session = fast_session()
        config = ServiceConfig(max_client_inflight=1, retry_after_s=hint)
        with ServingServer(session, config=config) as server:
            # Alice's first request runs once one of hers was shed.
            runner = server.runner
            hold_next_request(runner, lambda: runner.stats.rejected >= 1)
            statuses = []

            def submit(size):
                body = json.dumps({"program": "correlation:a",
                                   "client": "alice",
                                   "parameters": {"M": size, "N": size}})
                request = urllib.request.Request(
                    server.address + "/v1/schedule", data=body.encode(),
                    method="POST",
                    headers={"Content-Type": "application/json"})
                try:
                    with urllib.request.urlopen(request, timeout=60) as reply:
                        statuses.append((reply.status, dict(reply.headers)))
                except urllib.error.HTTPError as error:
                    statuses.append((error.code, dict(error.headers)))

            with ThreadPoolExecutor(max_workers=6) as pool:
                list(pool.map(submit, [32 + index for index in range(6)]))
            rejected = [headers for status, headers in statuses
                        if status == 429]
            assert rejected
            assert rejected[0].get("Retry-After") == header
        session.close()
