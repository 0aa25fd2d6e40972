"""Tests for the async service core: queueing, micro-batching, coalescing."""

import asyncio

import pytest
from helpers import GEMM_PARAMS as PARAMS
from helpers import build_gemm, fast_session

from repro.api import ScheduleRequest
from repro.serving import (SchedulingService, ServiceConfig, ServiceRunner,
                           request_fingerprint)


def run(coro):
    return asyncio.run(coro)


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


class TestSchedulingService:
    def test_duplicate_inflight_requests_coalesce_to_one_schedule(self):
        """The acceptance criterion: N identical concurrent requests cost
        exactly one scheduler invocation."""
        session = fast_session()

        async def fire():
            service = SchedulingService(session)
            await service.start()
            try:
                return await asyncio.gather(
                    *(service.schedule(ScheduleRequest(program="gemm:a"))
                      for _ in range(8)))
            finally:
                await service.stop()

        responses = run(fire())
        assert len(responses) == 8
        assert len({response.runtime_s for response in responses}) == 1
        report = session.report()
        assert report.schedule_calls == 1          # one scheduler invocation
        assert report.coalesced_requests == 7      # the rest rode along
        assert report.schedule_cache_misses == 1
        assert report.schedule_cache_hits == 0

    def test_coalesced_responses_do_not_share_programs(self):
        session = fast_session()

        async def fire():
            service = SchedulingService(session)
            await service.start()
            try:
                return await asyncio.gather(
                    *(service.schedule(ScheduleRequest(program="gemm:a"))
                      for _ in range(3)))
            finally:
                await service.stop()

        responses = run(fire())
        responses[0].program.body.clear()
        assert responses[1].program.body and responses[2].program.body

    def test_distinct_requests_form_one_micro_batch(self):
        session = fast_session()

        async def fire():
            service = SchedulingService(
                session, ServiceConfig(max_batch_size=8))
            await service.start()
            try:
                return await asyncio.gather(
                    service.schedule(ScheduleRequest(program="gemm:a")),
                    service.schedule(ScheduleRequest(program="atax:a")),
                    service.schedule(ScheduleRequest(program="bicg:a")))
            finally:
                await service.stop()

        responses = run(fire())
        assert all(response.runtime_s > 0 for response in responses)
        stats = session.report()
        assert stats.batch_calls == 1  # one schedule_batch served all three

    def test_sequential_repeat_is_a_cache_hit_not_coalesced(self):
        session = fast_session()

        async def fire():
            service = SchedulingService(session, ServiceConfig())
            await service.start()
            try:
                first = await service.schedule(ScheduleRequest(program="gemm:a"))
                second = await service.schedule(ScheduleRequest(program="gemm:a"))
                return first, second
            finally:
                await service.stop()

        first, second = run(fire())
        assert not first.from_cache and second.from_cache
        assert session.report().coalesced_requests == 0

    def test_tune_requests_are_rejected(self):
        session = fast_session()

        async def fire():
            service = SchedulingService(session, ServiceConfig())
            await service.start()
            try:
                await service.schedule(ScheduleRequest(program="gemm:a",
                                                       tune=True))
            finally:
                await service.stop()

        with pytest.raises(ValueError, match="tune requests"):
            run(fire())

    def test_one_bad_request_does_not_fail_its_batchmates(self):
        """A valid request sharing a micro-batch with an invalid one must
        still be served (per-item failure isolation)."""
        session = fast_session()

        async def fire():
            service = SchedulingService(
                session, ServiceConfig(max_batch_size=8))
            await service.start()
            try:
                good, bad = await asyncio.gather(
                    service.schedule(ScheduleRequest(program="gemm:a")),
                    service.schedule(
                        ScheduleRequest(program="no-such-workload-anywhere")),
                    return_exceptions=True)
                return good, bad
            finally:
                await service.stop()

        good, bad = run(fire())
        assert isinstance(bad, Exception)
        assert not isinstance(good, Exception) and good.runtime_s > 0
        assert session.report().batch_calls == 1  # they shared one batch
        stats = session.report()
        assert stats.schedule_calls >= 1

    def test_errors_propagate_and_do_not_wedge_the_service(self):
        session = fast_session()

        async def fire():
            service = SchedulingService(session, ServiceConfig())
            await service.start()
            try:
                with pytest.raises(Exception):
                    await service.schedule(
                        ScheduleRequest(program="no-such-workload-anywhere"))
                # The batcher survives the failed batch and keeps serving.
                return await service.schedule(ScheduleRequest(program="gemm:a"))
            finally:
                await service.stop()

        response = run(fire())
        assert response.runtime_s > 0

    def test_schedule_before_start_raises(self):
        session = fast_session()

        async def fire():
            service = SchedulingService(session)
            await service.schedule(ScheduleRequest(program="gemm:a"))

        with pytest.raises(RuntimeError, match="not running"):
            run(fire())


class TestServiceRunner:
    def test_runner_context_schedules_from_plain_threads(self):
        session = fast_session()
        with ServiceRunner(session) as runner:
            response = runner.schedule(ScheduleRequest(program="gemm:a"))
            assert response.runtime_s > 0
            repeat = runner.schedule(ScheduleRequest(program="gemm:a"))
            assert repeat.from_cache
        assert session.report().schedule_calls == 2

    def test_schedule_many_coalesces_duplicates(self):
        session = fast_session()
        with ServiceRunner(session) as runner:
            requests = [ScheduleRequest(program="gemm:a") for _ in range(5)]
            requests += [ScheduleRequest(program="atax:a") for _ in range(5)]
            responses = runner.schedule_many(requests)
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
