"""Tests for the service core: queueing one request at a time,
coalescing, priority ordering, and admission control (HTTP included)."""

import contextlib
import json
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import CancelledError, ThreadPoolExecutor

import pytest
from helpers import GEMM_PARAMS as PARAMS
from helpers import (StubSession, build_gemm, fast_session, hold_next_request,
                     queue_behind, wait_until)

from repro.api import ScheduleRequest
from repro.serving import (AdmissionController, AdmissionError,
                           ServiceConfig, ServiceRunner, ServingClient,
                           ServingServer, request_fingerprint)


class TestRequestFingerprint:
    def test_identical_requests_share_a_fingerprint(self):
        first = ScheduleRequest(program="gemm:a")
        second = ScheduleRequest(program="gemm:a")
        assert request_fingerprint(first) == request_fingerprint(second)

    def test_program_content_drives_the_fingerprint(self):
        # Same kernel under different names coalesces...
        one = ScheduleRequest(program=build_gemm(name="one"), parameters=PARAMS)
        two = ScheduleRequest(program=build_gemm(name="two"), parameters=PARAMS)
        assert request_fingerprint(one) == request_fingerprint(two)
        # ...different structure does not.
        other = ScheduleRequest(program=build_gemm(("k", "j", "i")),
                                parameters=PARAMS)
        assert request_fingerprint(one) != request_fingerprint(other)

    def test_configuration_distinguishes_requests(self):
        base = ScheduleRequest(program="gemm:a")
        assert request_fingerprint(base) \
            != request_fingerprint(ScheduleRequest(program="gemm:a",
                                                   scheduler="clang"))
        assert request_fingerprint(base) \
            != request_fingerprint(ScheduleRequest(program="gemm:a", threads=8))
        assert request_fingerprint(base) \
            != request_fingerprint(ScheduleRequest(program="gemm:a",
                                                   parameters={"NI": 8}))
        # None (registry defaults) and {} (no bindings) resolve differently.
        assert request_fingerprint(base) \
            != request_fingerprint(ScheduleRequest(program="gemm:a",
                                                   parameters={}))

    def test_label_does_not_split_the_coalescing_key(self):
        assert request_fingerprint(ScheduleRequest(program="gemm:a", label="x")) \
            == request_fingerprint(ScheduleRequest(program="gemm:a", label="y"))


class TestServiceRunner:
    def test_duplicate_inflight_requests_coalesce_to_one_schedule(self):
        """The acceptance criterion: N identical concurrent requests cost
        exactly one scheduler invocation."""
        session = fast_session()
        request = ScheduleRequest(program="gemm:a")
        with ServiceRunner(session) as runner:
            responses = queue_behind(runner, request, [request] * 7)
        assert len(responses) == 8
        assert len({response.runtime_s for response in responses}) == 1
        report = session.report()
        assert report.schedule_calls == 1          # one scheduler invocation
        assert runner.stats.coalesced == 7         # the rest rode along
        assert report.schedule_cache_misses == 1
        assert report.schedule_cache_hits == 0

    def test_coalesced_responses_do_not_share_programs(self):
        session = fast_session()
        request = ScheduleRequest(program="gemm:a")
        with ServiceRunner(session) as runner:
            responses = queue_behind(runner, request, [request] * 2)
        responses[0].program.body.clear()
        assert responses[1].program.body and responses[2].program.body

    def test_requests_queued_behind_a_held_request_are_each_scheduled(self):
        session = fast_session()
        with ServiceRunner(session) as runner:
            responses = queue_behind(
                runner, ScheduleRequest(program="gemm:a"),
                [ScheduleRequest(program="atax:a"),
                 ScheduleRequest(program="bicg:a")])
        assert all(response.runtime_s > 0 for response in responses)
        assert session.report().schedule_calls == 3
        assert runner.stats.scheduled == 3

    def test_sequential_repeat_is_a_cache_hit_not_coalesced(self):
        session = fast_session()
        with ServiceRunner(session) as runner:
            first = runner.schedule(ScheduleRequest(program="gemm:a"))
            second = runner.schedule(ScheduleRequest(program="gemm:a"))
        assert not first.from_cache and second.from_cache
        assert runner.stats.coalesced == 0

    def test_stats_count_the_sessions_response_cache_hits(self):
        """``requests`` and ``fast_lane`` read the session's response-cache
        hit series: a direct ``session.lookup_response`` hit counts as a
        request the runner served, and schedules nothing."""
        session = fast_session()
        request = ScheduleRequest(program="gemm:a")
        with ServiceRunner(session) as runner:
            for _ in range(3):  # scheduled, stored, then served fast
                runner.schedule(request)
            before = (runner.stats.requests, runner.stats.fast_lane,
                      runner.stats.scheduled)
            assert before[:2] == (3, 1)
            assert session.lookup_response(request) is not None
            assert (runner.stats.requests, runner.stats.fast_lane,
                    runner.stats.scheduled) == (4, 2, before[2])

    def test_tune_requests_are_rejected(self):
        with ServiceRunner(fast_session()) as runner:
            with pytest.raises(ValueError, match="tune requests"):
                runner.schedule(ScheduleRequest(program="gemm:a", tune=True))

    @pytest.mark.parametrize("bad", [
        ScheduleRequest(program="no-such-workload-anywhere"),
        ScheduleRequest(program="gemm:a", scheduler="no-such-scheduler"),
        ScheduleRequest(program="gemm:a", scheduler="clang", pipeline="default"),
        ScheduleRequest(program="gemm:a", parameters={"NOPE": 3}),
    ], ids=["unknown-workload", "unknown-scheduler", "inert-pipeline",
            "missing-parameters"])
    def test_a_bad_request_does_not_fail_the_request_queued_behind_it(
            self, bad):
        session = fast_session()
        with ServiceRunner(session) as runner:
            _, bad, good = queue_behind(
                runner, ScheduleRequest(program="mvt:a"),
                [bad, ScheduleRequest(program="gemm:a")])
        assert isinstance(bad, Exception)
        assert not isinstance(good, Exception) and good.runtime_s > 0
        assert runner.stats.errors == 1 and runner.stats.scheduled == 2

    def test_errors_propagate_and_do_not_wedge_the_service(self):
        with ServiceRunner(fast_session()) as runner:
            with pytest.raises(Exception):
                runner.schedule(
                    ScheduleRequest(program="no-such-workload-anywhere"))
            # The batcher survives the failed request and keeps serving.
            response = runner.schedule(ScheduleRequest(program="gemm:a"))
        assert response.runtime_s > 0

    def test_schedule_before_start_raises(self):
        runner = ServiceRunner(fast_session())
        with pytest.raises(RuntimeError, match="not running"):
            runner.schedule(ScheduleRequest(program="gemm:a"))

    def test_runner_context_schedules_from_plain_threads(self):
        session = fast_session()
        with ServiceRunner(session) as runner:
            response = runner.schedule(ScheduleRequest(program="gemm:a"))
            assert response.runtime_s > 0
            repeat = runner.schedule(ScheduleRequest(program="gemm:a"))
            assert repeat.from_cache
        assert session.report().schedule_calls == 2

    def test_concurrent_duplicates_coalesce(self):
        session = fast_session()
        gemm, atax = (ScheduleRequest(program=program)
                      for program in ("gemm:a", "atax:a"))
        with ServiceRunner(session) as runner:
            responses = queue_behind(runner, gemm, [gemm] * 4 + [atax] * 5)
        assert len(responses) == 10
        report = session.report()
        assert report.schedule_calls == 2
        assert runner.stats.requests == 10
        assert runner.stats.coalesced == 8

    def test_runner_stop_is_idempotent(self):
        runner = ServiceRunner(fast_session())
        runner.start()
        runner.stop()
        runner.stop()

    def test_a_stopped_runner_starts_again(self):
        session = StubSession()
        runner = ServiceRunner(session)
        for round_ in range(2):
            with runner:
                runner.schedule(ScheduleRequest(program=f"p-{round_}"))
        assert session.order == ["p-0", "p-1"]


class TestOneRequestAtATime:
    """The batcher schedules the most urgent request, answers it, and only
    then takes the next: no reply waits for another request's schedule."""

    @staticmethod
    @contextlib.contextmanager
    def _queue_three(session, wrap):
        """Hold ``gemm:a`` while ``atax:a`` (B) and then ``bicg:a`` (C) are
        admitted behind it, with ``session.schedule`` wrapped by
        ``wrap(schedule)``; release it and yield the ``schedule_timed``
        futures of B and C."""
        session.schedule = wrap(session.schedule)
        with ServiceRunner(session) as runner, ThreadPoolExecutor(3) as pool:
            release = threading.Event()
            held = hold_next_request(runner, release.is_set)
            gate = pool.submit(runner.schedule,
                               ScheduleRequest(program="gemm:a"), 60)
            assert held.wait(60)
            futures = []
            for name in ("atax:a", "bicg:a"):
                expected = runner.stats.requests + 1
                futures.append(pool.submit(
                    runner.schedule_timed, ScheduleRequest(program=name), 60))
                wait_until(lambda: runner.stats.requests == expected)
            release.set()
            yield futures
            assert gate.result(60).runtime_s > 0

    def test_a_reply_does_not_wait_for_the_schedule_queued_behind_it(self):
        scheduling_c, release_c = threading.Event(), threading.Event()

        def wrap(schedule):
            def blocking(request, *args, **kwargs):
                if request.program == "bicg:a":
                    scheduling_c.set()
                    assert release_c.wait(60)
                return schedule(request, *args, **kwargs)
            return blocking

        with self._queue_three(fast_session(), wrap) as (b, c):
            try:
                assert scheduling_c.wait(60)
                # C's schedule is blocked, and B is answered all the same.
                response, _ = b.result(30)
                assert response.runtime_s > 0 and not c.done()
            finally:
                release_c.set()
            assert c.result(60)[0].runtime_s > 0

    def test_a_queue_wait_covers_the_schedules_ahead_of_it(self):
        delay = 0.2

        def wrap(schedule):
            def slow(request, *args, **kwargs):
                if request.program == "atax:a":
                    time.sleep(delay)
                return schedule(request, *args, **kwargs)
            return slow

        with self._queue_three(fast_session(), wrap) as (b, c):
            (_, b_timing), (_, c_timing) = b.result(60), c.result(60)
        # C was taken only after B's schedule, which took at least ``delay``.
        assert c_timing.queue_wait_s >= delay
        assert b_timing.queue_wait_s < c_timing.queue_wait_s


class _BlockingSession(StubSession):
    """A stub whose schedules block until released, counting the calls
    that are still running."""

    def __init__(self):
        super().__init__()
        self.running = 0
        self.entered = threading.Event()
        self.release = threading.Event()

    def schedule(self, request):
        self.running += 1
        self.entered.set()
        try:
            assert self.release.wait(30)
            return super().schedule(request)
        finally:
            self.running -= 1


def test_stop_cancels_waiters_at_once_and_outlives_no_schedule():
    session = _BlockingSession()
    runner = ServiceRunner(session)
    runner.start()
    outcomes = []

    def submit(program):
        try:
            outcomes.append(runner.schedule(ScheduleRequest(program=program)))
        except CancelledError as error:
            outcomes.append(error)

    callers = [threading.Thread(target=submit, args=(program,))
               for program in ("running", "queued")]
    callers[0].start()
    assert session.entered.wait(30)
    callers[1].start()
    wait_until(lambda: runner.stats.requests == 2)
    stopper = threading.Thread(target=runner.stop)
    stopper.start()
    for caller in callers:                  # cancelled, the schedule still held
        caller.join(30)
        assert not caller.is_alive()
    assert [type(outcome) for outcome in outcomes] == [CancelledError] * 2
    assert stopper.is_alive() and session.running == 1
    time.sleep(0.05)
    session.release.set()
    stopper.join(30)
    assert not stopper.is_alive()
    # stop() returned after the schedule in flight, never before it.
    assert session.running == 0
    assert session.order == ["running"]     # the queued request never ran


# -- priority ordering --------------------------------------------------------------

def _drain(session, requests):
    """Stack ``requests``, in order, behind a held gate request (the
    batcher is pinned while they queue); returns the runner's stats."""
    with ServiceRunner(session, ServiceConfig()) as runner:
        queue_behind(runner, ScheduleRequest(program="gate"), requests)
    return runner.stats


def _requests(*submissions):
    return [ScheduleRequest(program=program, priority=priority)
            for program, priority in submissions]


class TestPriorityOrdering:
    def test_queue_drains_strictly_by_priority_under_load(self):
        session = StubSession()
        _drain(session, _requests(("bulk-1", 9), ("bulk-2", 9), ("mid", 5),
                                  ("urgent-1", 0), ("bulk-3", 9),
                                  ("urgent-2", 0)))
        assert session.order[0] == "gate"
        assert session.order[1:] == [
            # Priority first; FIFO within one priority class.
            "urgent-1", "urgent-2", "mid", "bulk-1", "bulk-2", "bulk-3"]

    def test_urgent_rider_reprioritizes_its_queued_leader(self):
        """A priority-0 request that coalesces onto a queued priority-9
        leader must pull the leader forward — it must not drain at the
        leader's priority behind less urgent work."""
        session = StubSession()
        stats = _drain(session, _requests(("shared", 9), ("mid", 5),
                                          ("shared", 0)))
        # Without re-prioritization the order would be gate, mid, shared.
        assert session.order == ["gate", "shared", "mid"]
        assert stats.coalesced == 1

    def test_default_priorities_keep_fifo_order(self):
        session = StubSession()
        _drain(session, [ScheduleRequest(program=f"r{index}")
                         for index in range(4)])
        assert session.order == ["gate", "r0", "r1", "r2", "r3"]


# -- admission control --------------------------------------------------------------

class TestAdmissionController:
    def test_queue_depth_sheds_new_work_but_not_riders(self):
        controller = AdmissionController(ServiceConfig(max_queue_depth=2))
        controller.admit(ScheduleRequest(program="a"), queue_depth=1,
                         rider=False)
        with pytest.raises(AdmissionError) as caught:
            controller.admit(ScheduleRequest(program="b"), queue_depth=2,
                             rider=False)
        assert caught.value.reason == "queue-full"
        assert caught.value.retry_after_s > 0
        # A coalescing rider adds no queue work and is exempt.
        controller.admit(ScheduleRequest(program="a"), queue_depth=2,
                         rider=True)
        stats = controller.stats.to_dict()
        assert stats == {"admitted": 2, "rejected_queue_full": 1,
                         "rejected_client_limit": 0}

    def test_client_limit_counts_inflight_and_releases(self):
        controller = AdmissionController(
            ServiceConfig(max_client_inflight=2))
        alice = ScheduleRequest(program="a", client="alice")
        controller.admit(alice, queue_depth=0, rider=False)
        controller.admit(alice, queue_depth=0, rider=True)
        with pytest.raises(AdmissionError) as caught:
            controller.admit(alice, queue_depth=0, rider=False)
        assert caught.value.reason == "client-limit"
        # Other clients (and anonymous requests) are unaffected.
        controller.admit(ScheduleRequest(program="a", client="bob"),
                         queue_depth=0, rider=False)
        controller.admit(ScheduleRequest(program="a"), queue_depth=0,
                         rider=False)
        controller.release(alice)
        controller.admit(alice, queue_depth=0, rider=False)
        assert controller.client_inflight("alice") == 2
        assert controller.stats.rejected_client_limit == 1

    def test_service_counts_rejections(self):
        # Alice's first request is held in the session (the gate); her
        # second arrives while it is in flight and must be shed.
        session = StubSession()
        config = ServiceConfig(max_client_inflight=1)
        with ServiceRunner(session, config) as runner:
            _, shed = queue_behind(
                runner, ScheduleRequest(program="gate", client="alice"),
                [ScheduleRequest(program="other", client="alice")])
        assert isinstance(shed, AdmissionError)
        assert runner.stats.rejected == 1
        assert runner.admission.stats.rejected_client_limit == 1
        assert session.order == ["gate"]


class TestAdmissionOverHttp:
    def test_queue_full_returns_429_with_retry_after(self):
        """Flood a 1-deep queue with distinct cold requests: some must be
        shed as HTTP 429 with Retry-After, the rest succeed."""
        session = fast_session()
        config = ServiceConfig(max_queue_depth=1, retry_after_s=0.25)
        with ServingServer(session, config=config) as server:
            # The first request runs once one was shed: until then one
            # request runs, one waits, and the rest find the queue full.
            runner = server.runner
            hold_next_request(runner, lambda: runner.stats.rejected >= 1)
            client = ServingClient(server.address)
            programs = [("gemm:a", {"NI": 32 + index, "NJ": 32, "NK": 32})
                        for index in range(8)]

            def submit(item):
                name, parameters = item
                return client.request("POST", "/v1/schedule",
                                      {"program": name,
                                       "parameters": parameters})

            with ThreadPoolExecutor(max_workers=8) as pool:
                outcomes = list(pool.map(submit, programs))
            statuses = [status for status, _ in outcomes]
            assert any(status == 429 for status in statuses)
            assert any(status == 200 for status in statuses)
            rejected = next(payload for status, payload in outcomes
                            if status == 429)
            assert rejected["reason"] == "queue-full"
            assert rejected["retry_after_s"] == 0.25
            report = client.report()
            assert report["admission"]["rejected_queue_full"] >= 1
            assert report["service"]["rejected"] >= 1
        session.close()

    def test_client_limit_returns_429_and_other_clients_pass(self):
        session = fast_session()
        config = ServiceConfig(max_client_inflight=1)
        with ServingServer(session, config=config) as server:
            # Alice's first request runs once one of hers was shed.
            runner = server.runner
            hold_next_request(runner, lambda: runner.stats.rejected >= 1)
            client = ServingClient(server.address)

            def submit(identity, size):
                return client.request(
                    "POST", "/v1/schedule",
                    {"program": "correlation:a", "client": identity,
                     "parameters": {"M": size, "N": size}})

            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(submit, "alice", 24 + index)
                           for index in range(6)]
                outcomes = [future.result() for future in futures]
            statuses = [status for status, _ in outcomes]
            assert any(status == 429 for status in statuses)
            assert any(status == 200 for status in statuses)
            rejected = next(payload for status, payload in outcomes
                            if status == 429)
            assert rejected["reason"] == "client-limit"
            # The limit is per-client: bob is admitted immediately.
            status, _ = submit("bob", 16)
            assert status == 200
        session.close()

    def test_retry_after_header_is_sent(self):
        session = fast_session()
        config = ServiceConfig(max_client_inflight=1, retry_after_s=2.0)
        with ServingServer(session, config=config) as server:
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
            assert rejected[0].get("Retry-After") == "2"
        session.close()


class TestReportOverHttp:
    def test_v1_report_exposes_pass_counters(self):
        """The normalizing pipeline's counters reach ``/v1/report``."""
        session = fast_session()
        with ServingServer(session) as server:
            client = ServingClient(server.address)
            status, _ = client.request(
                "POST", "/v1/schedule",
                ScheduleRequest(program="gemm:a",
                                pipeline="a-priori").to_dict())
            assert status == 200
            passes = client.report()["normalization_passes"]
            client.close()
        session.close()
        assert passes["maximal-fission"]["counters"]["loops_split"] == 2
        assert passes["stride-minimization"]["runs"] == 1
        assert passes["stride-minimization"]["counters"][
            "nests_permuted"] == 1


class TestClientOverrides:
    def test_priority_and_client_override_a_ready_request(self, monkeypatch):
        client = ServingClient("http://example.invalid")
        captured = {}

        class _Captured(Exception):
            pass

        def fake_checked(method, path, body=None):
            captured["body"] = body
            raise _Captured()

        monkeypatch.setattr(client, "_checked", fake_checked)
        original = ScheduleRequest(program="gemm:a")
        with pytest.raises(_Captured):
            client.schedule(original, priority=0, client="ops")
        assert captured["body"]["priority"] == 0
        assert captured["body"]["client"] == "ops"
        # The caller's request object is not mutated (override on a copy).
        assert original.priority == 5
        assert original.client is None
