"""Tests for the service core: queueing, micro-batching, coalescing."""

import threading
import time
from concurrent.futures import CancelledError

import pytest
from helpers import GEMM_PARAMS as PARAMS
from helpers import (StubSession, build_gemm, fast_session, queue_behind,
                     wait_until)

from repro.api import ScheduleRequest
from repro.serving import ServiceConfig, ServiceRunner, request_fingerprint


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
        assert report.coalesced_requests == 7      # the rest rode along
        assert report.schedule_cache_misses == 1
        assert report.schedule_cache_hits == 0

    def test_coalesced_responses_do_not_share_programs(self):
        session = fast_session()
        request = ScheduleRequest(program="gemm:a")
        with ServiceRunner(session) as runner:
            responses = queue_behind(runner, request, [request] * 2)
        responses[0].program.body.clear()
        assert responses[1].program.body and responses[2].program.body

    def test_requests_queued_behind_a_batch_form_one_micro_batch(self):
        session = fast_session()
        with ServiceRunner(session, ServiceConfig(max_batch_size=8)) as runner:
            responses = queue_behind(
                runner, ScheduleRequest(program="gemm:a"),
                [ScheduleRequest(program="atax:a"),
                 ScheduleRequest(program="bicg:a")])
        assert all(response.runtime_s > 0 for response in responses)
        # The held batch, then one schedule_batch for both queued requests.
        assert session.report().batch_calls == 2
        assert runner.stats.largest_batch == 2

    def test_sequential_repeat_is_a_cache_hit_not_coalesced(self):
        session = fast_session()
        with ServiceRunner(session) as runner:
            first = runner.schedule(ScheduleRequest(program="gemm:a"))
            second = runner.schedule(ScheduleRequest(program="gemm:a"))
        assert not first.from_cache and second.from_cache
        assert session.report().coalesced_requests == 0

    def test_tune_requests_are_rejected(self):
        with ServiceRunner(fast_session()) as runner:
            with pytest.raises(ValueError, match="tune requests"):
                runner.schedule(ScheduleRequest(program="gemm:a", tune=True))

    def test_one_bad_request_does_not_fail_its_batchmates(self):
        """A valid request sharing a micro-batch with an invalid one must
        still be served (per-item failure isolation)."""
        session = fast_session()
        with ServiceRunner(session, ServiceConfig(max_batch_size=8)) as runner:
            _, good, bad = queue_behind(
                runner, ScheduleRequest(program="mvt:a"),
                [ScheduleRequest(program="gemm:a"),
                 ScheduleRequest(program="no-such-workload-anywhere")])
        assert isinstance(bad, Exception)
        assert not isinstance(good, Exception) and good.runtime_s > 0
        assert session.report().batch_calls == 2  # they shared one batch
        assert runner.stats.largest_batch == 2

    def test_errors_propagate_and_do_not_wedge_the_service(self):
        with ServiceRunner(fast_session()) as runner:
            with pytest.raises(Exception):
                runner.schedule(
                    ScheduleRequest(program="no-such-workload-anywhere"))
            # The batcher survives the failed batch and keeps serving.
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
        assert report.coalesced_requests == 8
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


class _BlockingSession(StubSession):
    """A stub whose batches block until released, counting the calls that
    are still running."""

    def __init__(self):
        super().__init__()
        self.running = 0
        self.entered = threading.Event()
        self.release = threading.Event()

    def schedule_batch(self, requests, return_exceptions=False):
        self.running += 1
        self.entered.set()
        try:
            assert self.release.wait(30)
            return super().schedule_batch(requests, return_exceptions)
        finally:
            self.running -= 1


def test_stop_cancels_waiters_at_once_and_outlives_no_batch():
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
    for caller in callers:                  # cancelled, the batch still held
        caller.join(30)
        assert not caller.is_alive()
    assert [type(outcome) for outcome in outcomes] == [CancelledError] * 2
    assert stopper.is_alive() and session.running == 1
    time.sleep(0.05)
    session.release.set()
    stopper.join(30)
    assert not stopper.is_alive()
    # stop() returned after the batch in flight, never before it.
    assert session.running == 0
    assert session.order == ["running"]     # the queued request never ran
