"""Tests for the Session facade: loading, scheduling, caching, batching."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from helpers import GEMM_PARAMS as PARAMS
from helpers import build_gemm, build_vector_add, fast_session, queue_behind

from repro.api import (RegistryError, ScheduleRequest, ScheduleResponse,
                       Session, benchmark_names)
from repro.serving.cli import main as cli_main

VEC_SOURCE = """
double x[N];
double y[N];
double z[N];
for (i = 0; i < N; i++) { z[i] = x[i] + y[i]; }
"""


class TestLoad:
    def test_load_program_passthrough(self):
        session = fast_session()
        program = build_gemm()
        assert session.load(program) is program

    def test_load_workload_names(self):
        session = fast_session()
        a = session.load("gemm")
        b = session.load("gemm:b")
        npb = session.load("gemm", variant="npbench")
        assert a.name != b.name and npb.name != a.name

    def test_load_clike_source(self):
        session = fast_session()
        program = session.load(VEC_SOURCE, name="vec")
        assert program.name == "vec"
        assert set(program.arrays) == {"x", "y", "z"}

    def test_load_special_workloads(self):
        session = fast_session()
        assert session.load("erosion").body
        assert session.load("cloudsc").body

    def test_load_unknown_name_raises(self):
        session = fast_session()
        with pytest.raises(RegistryError):
            session.load("definitely-not-a-workload")

    def test_workload_names_carry_default_parameters(self):
        session = fast_session(size="small")
        response = session.schedule("gemm:a", scheduler="clang")
        assert response.runtime_s > 0

    def test_program_without_parameters_raises(self):
        session = fast_session()
        with pytest.raises(ValueError, match="no parameters"):
            session.schedule(build_gemm())


class TestScheduleAndCache:
    def test_normalized_equivalent_variant_served_from_cache(self):
        """The acceptance-criterion scenario: scheduling a normalized-
        equivalent B variant is a schedule-cache hit, visible in report()."""
        session = fast_session()
        first = session.schedule(build_gemm(("i", "j", "k")), PARAMS)
        second = session.schedule(build_gemm(("i", "k", "j")), PARAMS)

        assert not first.from_cache
        assert second.from_cache
        assert first.canonical_hash == second.canonical_hash
        assert second.runtime_s == first.runtime_s

        report = session.report()
        assert report.schedule_cache_hits == 1
        assert report.schedule_cache_misses == 1
        assert report.schedule_calls == 2

    def test_same_program_hits_normalization_cache(self):
        session = fast_session()
        session.schedule(build_gemm(), PARAMS)
        repeat = session.schedule(build_gemm(), PARAMS)
        assert repeat.from_cache and repeat.normalization_cache_hit
        assert session.report().normalization_hits == 1

    def test_normalization_cache_hit_keeps_callers_program_name(self):
        session = fast_session()
        session.normalize(build_gemm(name="first"))
        served = session.normalize(build_gemm(name="second"))
        assert served.cache_hit
        assert served.program.name == "second"
        # The same holds for the program a fresh schedule normalizes through.
        response = session.schedule(build_gemm(name="third"), PARAMS)
        assert response.program.name == "third"

    def test_tuning_schedulers_share_the_session_database(self):
        """Registry metadata (tunes=True), not a hard-coded name, wires the
        session database in: evolutionary tunes land there too."""
        session = fast_session()
        session.tune("gemm:a", label="gemm", scheduler="evolutionary")
        assert session.report().database_entries > 0

    def test_registry_variants_share_schedule_cache(self):
        session = fast_session()
        first = session.schedule("gemm:a")
        second = session.schedule("gemm:b")
        assert second.from_cache and not first.from_cache
        # The served copy keeps the caller's program name.
        assert second.program.name == session.load("gemm:b").name

    def test_cached_response_program_is_a_copy(self):
        session = fast_session()
        session.schedule(build_gemm(), PARAMS)
        served = session.schedule(build_gemm(), PARAMS)
        served.program.body.clear()
        again = session.schedule(build_gemm(), PARAMS)
        assert again.program.body

    def test_baselines_do_not_normalize_by_default(self):
        session = fast_session()
        response = session.schedule(build_gemm(), PARAMS, scheduler="clang")
        assert not response.normalized and response.canonical_hash is None
        forced = session.schedule(build_gemm(), PARAMS, scheduler="clang",
                                  normalize=True)
        assert forced.normalized and forced.canonical_hash is not None

    def test_baseline_schedules_also_content_cached(self):
        session = fast_session()
        first = session.schedule(build_gemm(), PARAMS, scheduler="polly")
        second = session.schedule(build_gemm(), PARAMS, scheduler="polly")
        assert second.from_cache and second.runtime_s == first.runtime_s

    def test_tune_populates_database_and_transfers(self):
        session = fast_session()
        session.tune("gemm:a", label="gemm")
        assert session.report().tune_calls == 1
        assert session.report().database_entries > 0
        response = session.schedule("gemm:b")
        statuses = {info.status for info in response.result.nests}
        assert statuses == {"optimized"}

    def test_tune_invalidates_cached_schedules(self):
        """A schedule cached before tune() must not shadow the transfer-tuned
        schedule available afterwards (the database version is in the key)."""
        session = fast_session()
        session.schedule("atax:b")  # cached against the empty database
        session.tune("atax:a", label="atax")
        after = session.schedule("atax:b")
        assert not after.from_cache
        details = [info.detail for info in after.result.nests]
        assert any("transfer from" in detail for detail in details), details

    def test_tune_on_non_tuning_scheduler_raises(self):
        session = fast_session()
        with pytest.raises(RegistryError, match="does not support tuning"):
            session.tune(build_gemm(), PARAMS, scheduler="clang")


class TestRoundTrips:
    def test_request_round_trip_with_program(self):
        request = ScheduleRequest(program=build_gemm(), parameters=PARAMS,
                                  scheduler="daisy", threads=4, label="x",
                                  normalize=True)
        restored = ScheduleRequest.from_dict(request.to_dict())
        assert restored.scheduler == "daisy" and restored.threads == 4
        assert restored.label == "x" and restored.normalize is True
        assert dict(restored.parameters) == PARAMS
        assert restored.program.name == request.program.name

    def test_request_round_trip_with_workload_name(self):
        request = ScheduleRequest(program="gemm:b")
        restored = ScheduleRequest.from_dict(request.to_dict())
        assert restored.program == "gemm:b"

    def test_explicit_empty_parameters_survive_round_trip(self):
        data = ScheduleRequest(program="gemm:a", parameters={}).to_dict()
        assert data["parameters"] == {}  # not collapsed to null

    def test_response_round_trip(self):
        import json

        session = fast_session()
        response = session.schedule(build_gemm(), PARAMS)
        payload = json.loads(json.dumps(response.to_dict()))
        restored = ScheduleResponse.from_dict(payload)
        assert restored.runtime_s == response.runtime_s
        assert restored.canonical_hash == response.canonical_hash
        assert len(restored.result.nests) == len(response.result.nests)
        assert [info.status for info in restored.result.nests] \
            == [info.status for info in response.result.nests]
        # The restored scheduled program estimates to the same runtime.
        assert session.evaluate(restored.program, PARAMS) \
            == pytest.approx(session.evaluate(response.program, PARAMS))


class TestSingleResponseType:
    """One ``ScheduleResponse``, field-backed or JSON-text-backed."""

    def test_json_round_trips_cold_cached_and_coalesced_responses(self):
        from repro.serving import ServiceRunner

        session = fast_session()
        cold = session.schedule("gemm:a")
        cached = session.schedule("gemm:a")
        request = ScheduleRequest(program="atax:a")
        with ServiceRunner(session) as runner:
            leader, rider = queue_behind(runner, request, [request])
            assert runner.stats.coalesced == 1
        session.close()
        assert not cold.from_cache and cached.from_cache
        assert rider.program is not leader.program
        for response in (cold, cached, leader, rider):
            restored = ScheduleResponse.from_json(response.to_json())
            assert type(restored) is ScheduleResponse
            assert restored.to_dict() == response.to_dict()
            # Decoding the fields does not change what it serializes to.
            assert restored.runtime_s == response.runtime_s
            assert restored.to_dict() == response.to_dict()

    def test_text_backed_flags_decode_before_any_other_field(self, monkeypatch):
        import json

        session = fast_session()
        session.schedule("gemm:a")
        data = session.schedule("gemm:a").to_dict()
        session.close()
        assert data["from_cache"] and data["normalization_cache_hit"]
        data["trace_id"] = "0123456789abcdef"
        text = json.dumps(data)
        # Each read is the first touch of a fresh text-backed response: a
        # class-level dataclass default would answer False / None here.
        assert ScheduleResponse.from_json(text).from_cache is True
        assert ScheduleResponse.from_json(text).normalization_cache_hit is True
        assert ScheduleResponse.from_json(text).trace_id == "0123456789abcdef"
        assert ScheduleResponse.from_json(text).canonical_hash \
            == data["canonical_hash"]

        # to_json() hands back the stored text object itself, unparsed.
        response = ScheduleResponse.from_json(text)
        monkeypatch.setattr(json, "loads", lambda *args, **kwargs: pytest.fail(
            "to_json() on a text-backed response must not parse"))
        assert response.to_json() is text

    def test_fast_lane_read_and_write_use_the_one_type(self):
        session = fast_session()
        request = ScheduleRequest(program="gemm:a")
        assert session.lookup_response(request) is None
        session.store_response(request, session.schedule(request))
        assert session.lookup_response(request) is None  # cold: not stored
        warm = session.schedule(request)
        session.store_response(request, warm)
        fast = session.lookup_response(request)
        assert type(fast) is ScheduleResponse
        assert fast.to_json() == warm.to_json()
        assert fast.trace_id is None and fast.from_cache
        session.close()


class TestScheduleLoop:
    """Many programs are a loop over ``schedule``; a later request is
    served from the entries an earlier one stored."""

    def items(self):
        return [
            (build_gemm(("i", "j", "k")), PARAMS),
            (build_gemm(("i", "k", "j")), PARAMS),
            (build_vector_add(), {"N": 4096}),
            ("atax:a", None),
        ]

    @staticmethod
    def _signature(responses):
        return [(r.runtime_s, r.canonical_hash,
                 tuple(info.status for info in r.result.nests))
                for r in responses]

    @staticmethod
    def _loop(session, items):
        return [session.schedule(*item) if isinstance(item, tuple)
                else session.schedule(item) for item in items]

    def test_a_loop_is_deterministic_across_sessions(self):
        first = self._loop(fast_session(), self.items())
        second = self._loop(fast_session(), self.items())
        assert self._signature(first) == self._signature(second)

    def test_a_loop_replies_alike_on_two_sessions_byte_for_byte(self):
        # Flags included: each b variant that normalizes onto its a
        # variant's canonical form is served from the entry the a stored.
        items = [f"{name}:{variant}" for name in benchmark_names()
                 for variant in "ab"]
        assert len(items) == 36
        first = self._loop(Session(size="small"), items)
        second = self._loop(Session(size="small"), items)
        assert [r.to_json() for r in first] == [r.to_json() for r in second]
        assert sum(r.from_cache for r in first) == 16

    def test_a_loop_shares_the_cache(self):
        session = fast_session()
        responses = self._loop(session, self.items())
        # Item 1 is item 0 in another loop order: one canonical form, so
        # the schedule item 0 stored serves item 1.
        assert not responses[0].from_cache
        assert responses[1].from_cache
        report = session.report()
        assert report.schedule_cache_hits == 1
        assert report.schedule_calls == 4

    def test_a_shared_session_replies_like_fresh_sessions(self):
        # An entry an earlier request stored changes no later reply.
        shared = self._loop(fast_session(), self.items())
        fresh = [self._loop(fast_session(), [item])[0] for item in self.items()]
        assert self._signature(shared) == self._signature(fresh)

    def test_a_loop_of_requests_replies_in_order(self):
        session = fast_session()
        requests = [ScheduleRequest(program="gemm:a", scheduler="clang"),
                    ScheduleRequest(program="atax:a", scheduler="clang")]
        responses = self._loop(session, requests)
        assert [r.request.program for r in responses] == ["gemm:a", "atax:a"]
        assert [r.scheduler for r in responses] == ["clang", "clang"]

    def test_a_failing_request_does_not_spoil_the_next(self):
        session = fast_session()
        with pytest.raises(RegistryError):
            session.schedule(ScheduleRequest(program="not-a-workload"))
        assert session.report().schedule_calls == 0  # it failed validation
        after = session.schedule(ScheduleRequest(program="atax:a"))
        assert after.runtime_s > 0 and not after.from_cache
        assert session.report().schedule_calls == 1


def test_warm_cache_counts_every_canonical_form_hit(tmp_path, capsys):
    # Seven a/b pairs; every b normalizes onto its a.
    status = cli_main(["warm-cache", "--cache-path",
                       str(tmp_path / "cache.sqlite"), "--size", "small",
                       "--workloads", "gemm", "2mm", "atax", "mvt", "bicg",
                       "syrk", "jacobi-2d", "--variants", "a", "b"])
    assert status == 0
    assert "warmed 14 schedules (7 already cached)" in capsys.readouterr().out


@pytest.mark.parametrize("call", [
    lambda: Session(max_workers=1),
], ids=["Session"])
def test_removed_max_workers_spelling_is_rejected(call):
    # Nothing schedules in parallel.
    with pytest.raises(TypeError, match="max_workers"):
        call()


@pytest.mark.parametrize("keyword", ["cache", "metrics"])
def test_removed_session_keywords_are_rejected(keyword):
    # Each session builds its own cache and registry; a fake store goes in
    # as cache_backend=.
    from repro.api import NormalizationCache
    from repro.observability import MetricsRegistry

    value = {"cache": NormalizationCache, "metrics": MetricsRegistry}[keyword]
    with pytest.raises(TypeError, match=keyword):
        Session(**{keyword: value()})


class TestConcurrentCacheLoad:
    """LRU eviction and hit/miss accounting under concurrent ``schedule()``
    callers sharing one session (the test owns the threads)."""

    ORDERS = [("i", "j", "k"), ("i", "k", "j"), ("k", "i", "j"),
              ("k", "j", "i"), ("j", "i", "k"), ("j", "k", "i")]

    @staticmethod
    def _concurrently(session, items, workers):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda item: session.schedule(*item), items))

    def test_counters_do_not_lose_updates_under_concurrency(self):
        session = fast_session()
        items = [(build_gemm(order), PARAMS)
                 for order in self.ORDERS for _ in range(4)]
        responses = self._concurrently(session, items, 8)
        assert len(responses) == 24
        report = session.report()
        # Every request touches the normalization level exactly once, and
        # the schedule level exactly once: no update may be lost.
        assert report.normalization_hits + report.normalization_misses == 24
        assert report.schedule_cache_hits + report.schedule_cache_misses == 24
        assert report.schedule_calls == 24
        # All six orders share one canonical form: at most a few racing
        # misses, everything else served from the schedule cache.
        assert report.normalization_misses >= 6
        assert report.schedule_cache_hits >= 24 - 2 * len(self.ORDERS)
        assert len({response.runtime_s for response in responses}) == 1

    def test_lru_eviction_under_concurrent_callers(self):
        from repro.api import MemoryCacheBackend

        session = fast_session(cache_backend=MemoryCacheBackend(max_entries=2))
        items = [(build_gemm(order), PARAMS) for order in self.ORDERS] * 2
        self._concurrently(session, items, 6)
        report = session.report()
        # Six distinct normalization entries through a two-entry store must
        # evict, and the store must stay within its bound throughout.
        assert report.cache_evictions > 0
        sizes = session.cache.backend.sizes()
        assert all(size <= 2 for size in sizes.values()), sizes
        assert report.normalization_hits + report.normalization_misses == 12

    def test_eviction_then_recompute_is_consistent(self):
        from repro.api import MemoryCacheBackend

        session = fast_session(cache_backend=MemoryCacheBackend(max_entries=1))
        items = [(build_gemm(order), PARAMS) for order in self.ORDERS]
        first = self._concurrently(session, items, 4)
        second = self._concurrently(session, items, 4)
        # Evicted entries are recomputed to identical results.
        assert [r.runtime_s for r in first] == [r.runtime_s for r in second]
        assert [r.canonical_hash for r in first] \
            == [r.canonical_hash for r in second]


class TestExecutionAndMeasurement:
    def test_execute_runs_interpreter(self):
        session = fast_session()
        x = np.arange(8, dtype=np.float64)
        y = np.ones(8)
        result = session.execute(VEC_SOURCE, {"N": 8}, inputs={"x": x, "y": y})
        np.testing.assert_allclose(result.output("z"), x + 1.0)
        assert session.report().execute_calls == 1

    def test_equivalence_of_scheduled_program(self):
        session = fast_session()
        program = build_gemm()
        response = session.schedule(program, PARAMS)
        small = {"NI": 6, "NJ": 5, "NK": 4}
        assert session.equivalent(program, response.program, small)

    def test_evaluate_does_not_schedule(self):
        session = fast_session()
        runtime = session.evaluate(build_gemm(), PARAMS)
        assert runtime > 0
        assert session.report().schedule_calls == 0

    def test_cache_report_counts_l1_traffic(self):
        session = fast_session()
        report = session.cache_report(build_vector_add(), {"N": 256})
        assert report.l1_loads > 0


class TestNormalizationOptionsPlumbing:
    def test_session_options_flow_into_normalize(self):
        session = fast_session(pipeline="no-fission")
        program = build_gemm()
        response = session.normalize(program)
        assert response.report.counters()["loops_split"] == 0

    def test_explicit_options_override(self):
        session = fast_session()
        response = session.normalize(build_gemm(), "no-fission")
        assert response.report.counters()["loops_split"] == 0
        full = session.normalize(build_gemm())
        assert full.report.counters()["loops_split"] >= 0
        assert full.input_hash != response.input_hash
