"""Tests for multi-process serving: the worker pool, cross-process cache
correctness, priority ordering, and admission control (HTTP included)."""

import json
import multiprocessing
import os
import signal
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest
from helpers import (StubSession, fast_session, hold_next_batch, malformed_gemm,
                     queue_behind)

from repro.api import (ScheduleRequest, ScheduleResponse, SearchConfig,
                       Session, SQLiteCacheBackend, TuningDatabase)
from repro.scheduler.embedding import EMBEDDING_SIZE, PerformanceEmbedding
from repro.serving import (AdmissionController, AdmissionError,
                           ServiceConfig, ServiceRunner, ServingClient,
                           ServingServer, WorkerConfig, WorkerError,
                           WorkerPool, merge_worker_reports)
from repro.transforms.recipe import Recipe

FAST_SEARCH = SearchConfig(population_size=4, epochs=1,
                           generations_per_epoch=1)


# -- cross-process cache correctness ------------------------------------------------

def _identity_codec(backend):
    backend.bind("ns", lambda value: value, lambda payload: payload)
    return backend


def _hammer_cache(path, worker_id, writes, barrier):
    """Subprocess body: write distinct keys and re-read earlier ones while
    sibling processes do the same against the same SQLite file."""
    backend = _identity_codec(SQLiteCacheBackend(path, busy_timeout_s=10.0))
    barrier.wait(timeout=60)  # maximize write overlap across processes
    for index in range(writes):
        key = f"w{worker_id}-k{index}"
        backend.put("ns", key, {"worker": worker_id, "index": index})
        read_back = backend.get("ns", key)
        assert read_back == {"worker": worker_id, "index": index}
        # Re-read an earlier key of *some* worker (whatever is visible).
        other = backend.get("ns", f"w{worker_id}-k{max(0, index - 1)}")
        assert other is not None
    backend.close()


def _open_fresh_caches(paths, barrier):
    """Subprocess body: open each new cache file in step with a sibling
    process doing the same, as pool workers do on their first start."""
    for path in paths:
        barrier.wait(timeout=60)
        try:
            SQLiteCacheBackend(path).close()
        except Exception:
            barrier.abort()  # fail the sibling now, not at its timeout
            raise


class TestCrossProcessCache:
    def test_wal_mode_and_busy_timeout_are_active(self, tmp_path):
        backend = SQLiteCacheBackend(str(tmp_path / "cache.sqlite"))
        journal = backend._conn.execute("PRAGMA journal_mode").fetchone()[0]
        timeout = backend._conn.execute("PRAGMA busy_timeout").fetchone()[0]
        assert journal == "wal"
        assert timeout == 5000
        assert backend.stats.to_dict()["busy_retries"] == 0
        backend.close()

    def test_processes_opening_one_new_file_at_once_all_succeed(self, tmp_path):
        """Switching a new file to WAL is reported busy at once, without the
        busy timeout; a backend must retry it rather than fail its worker's
        session build."""
        paths = [str(tmp_path / f"new-{index}.sqlite") for index in range(20)]
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(2)
        processes = [context.Process(target=_open_fresh_caches,
                                     args=(paths, barrier))
                     for _ in range(2)]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
            assert process.exitcode == 0
        for path in paths:
            backend = SQLiteCacheBackend(path)
            assert backend._conn.execute(
                "PRAGMA journal_mode").fetchone()[0] == "wal"
            backend.close()

    def test_two_processes_write_and_read_one_cache(self, tmp_path):
        """The acceptance scenario: concurrent writers on one SQLite file,
        no lost or corrupted entries."""
        path = str(tmp_path / "shared.sqlite")
        writes = 25
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(2)
        processes = [
            context.Process(target=_hammer_cache,
                            args=(path, worker_id, writes, barrier))
            for worker_id in range(2)]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
            assert process.exitcode == 0
        # Every entry both processes wrote is present and intact.
        backend = _identity_codec(SQLiteCacheBackend(path))
        assert backend.sizes() == {"ns": 2 * writes}
        for worker_id in range(2):
            for index in range(writes):
                value = backend.get("ns", f"w{worker_id}-k{index}")
                assert value == {"worker": worker_id, "index": index}
        backend.close()

    def test_entry_written_by_one_backend_is_served_to_another(self, tmp_path):
        path = str(tmp_path / "shared.sqlite")
        writer = _identity_codec(SQLiteCacheBackend(path))
        writer.put("ns", "key", {"payload": 42})
        reader = _identity_codec(SQLiteCacheBackend(path))
        assert reader.get("ns", "key") == {"payload": 42}
        # Served from disk on first access, from the hot layer afterwards.
        assert reader.stats.disk_hits == 1
        assert reader.get("ns", "key") == {"payload": 42}
        assert reader.stats.memory_hits == 1
        writer.close()
        reader.close()

    def test_recency_stamps_interleave_across_connections(self, tmp_path):
        """LRU eviction respects writes from *other* connections: the seq
        stamp is computed in SQL, not from a per-process counter."""
        path = str(tmp_path / "shared.sqlite")
        first = _identity_codec(SQLiteCacheBackend(path, max_entries=2))
        second = _identity_codec(SQLiteCacheBackend(path, max_entries=2))
        first.put("ns", "a", {"v": 1})
        second.put("ns", "b", {"v": 2})
        first.put("ns", "c", {"v": 3})  # evicts "a", the globally oldest
        assert first.get("ns", "a") is None
        assert second.get("ns", "b") == {"v": 2}
        assert second.get("ns", "c") == {"v": 3}
        first.close()
        second.close()


# -- the worker pool ---------------------------------------------------------------

@pytest.fixture(scope="module")
def shared_pool(tmp_path_factory):
    """One 2-worker pool over a shared SQLite cache, reused module-wide
    (spawning sessions in subprocesses is the expensive part)."""
    cache = str(tmp_path_factory.mktemp("pool") / "cache.sqlite")
    config = WorkerConfig(threads=4, cache_path=cache, search=FAST_SEARCH)
    with WorkerPool(2, config) as pool:
        yield pool, cache


class TestWorkerPool:
    def test_batch_returns_in_order_with_inband_errors(self, shared_pool):
        pool, _ = shared_pool
        requests = [ScheduleRequest(program="gemm:a"),
                    ScheduleRequest(program="definitely-not-a-workload"),
                    ScheduleRequest(program="mvt:a")]
        results = pool.schedule_batch(requests)
        assert len(results) == 3
        # The one response type, not a pool-specific subclass.
        assert type(results[0]) is type(results[2]) is ScheduleResponse
        assert results[0].result.program.body
        assert isinstance(results[1], KeyError)  # RegistryError subclass
        assert results[2].result.program.body
        # Programs surface under the requested registry names.
        assert results[0].program.name.startswith("gemm")
        assert results[2].program.name.startswith("mvt")

    def test_workers_share_the_cache_file(self, shared_pool):
        pool, _ = shared_pool
        pool.schedule(ScheduleRequest(program="atax:a"))
        # The normalized-equivalent B variant is served from the shared
        # cache no matter which worker computed the A variant.
        response = pool.schedule(ScheduleRequest(program="atax:b"))
        assert response.from_cache

    def test_portable_response_json_dict_and_attrs_agree(self, shared_pool):
        pool, _ = shared_pool
        response = pool.schedule(ScheduleRequest(program="bicg:a"))
        assert type(response) is ScheduleResponse
        payload = json.loads(response.to_json())
        assert payload == response.to_dict()
        assert response.runtime_s == payload["runtime_s"]
        assert response.scheduler == payload["scheduler"]
        assert ScheduleResponse.from_json(response.to_json()).to_dict() \
            == payload

    def test_tune_gathers_and_merges_entries_at_the_coordinator(self, shared_pool):
        pool, _ = shared_pool
        before = len(pool.database)
        results = pool.tune([ScheduleRequest(program="gemm:a", tune=True,
                                             label="gemm")])
        assert not isinstance(results[0], Exception)
        assert len(pool.database) > before
        assert pool.stats.gathered_entries >= len(pool.database) - before
        # Every worker holds every entry, at the coordinator's version.
        for worker in pool.report()["per_worker"].values():
            assert worker["database_entries"] == len(pool.database)
            assert worker["database_version"] == pool.database.version

    def test_a_tune_request_in_a_batch_reaches_every_worker(self,
                                                            shared_pool):
        pool, _ = shared_pool
        before = (len(pool.database), pool.stats.tuned, pool.stats.scheduled)
        results = pool.schedule_batch([
            ScheduleRequest(program="mvt:a", tune=True, label="mvt"),
            ScheduleRequest(program="gemm:a")])
        assert not any(isinstance(result, Exception) for result in results)
        assert len(pool.database) > before[0]
        assert (pool.stats.tuned, pool.stats.scheduled) \
            == (before[1] + 1, before[2] + 1)
        for worker in pool.report()["per_worker"].values():
            assert worker["database_version"] == pool.database.version

    def test_tune_rejects_non_tune_requests(self, shared_pool):
        pool, _ = shared_pool
        with pytest.raises(ValueError):
            pool.tune([ScheduleRequest(program="gemm:a")])

    def test_report_gathers_every_worker(self, shared_pool):
        pool, _ = shared_pool
        report = pool.report()
        assert report["num_workers"] == 2
        assert report["reports_collected"] == 2
        merged = report["merged"]
        assert merged["schedule_calls"] >= 4
        assert merged["cache_backend"] == "sqlite"
        assert len(report["per_worker"]) == 2
        assert report["pool"]["scheduled"] >= 4

    def test_broadcast_rounds_are_exact_under_traffic(self, shared_pool):
        """Every report/metrics round reaches each worker exactly once, even
        while batches keep the workers busy."""
        pool, _ = shared_pool
        stop = threading.Event()
        failures = []

        def traffic():
            while not stop.is_set():
                results = pool.schedule_batch(
                    [ScheduleRequest(program="gemm:a"),
                     ScheduleRequest(program="mvt:a")])
                failures.extend(result for result in results
                                if isinstance(result, Exception))

        thread = threading.Thread(target=traffic, daemon=True)
        thread.start()
        try:
            for _ in range(20):
                report = pool.report()
                metrics = pool.metrics()
                assert set(report["per_worker"]) == {"0", "1"}
                assert set(metrics["per_worker"]) == {"0", "1"}
                assert report["reports_collected"] == 2
                assert metrics["registries_collected"] == 2
        finally:
            stop.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert failures == []

    def test_the_pool_keeps_its_own_copy_of_the_database(self):
        """``pool.database`` holds the caller's entries at the caller's
        version, and what the pool appends never reaches the caller's
        object."""
        given = TuningDatabase()
        given.add(PerformanceEmbedding("nest", (1.0,) * EMBEDDING_SIZE),
                  Recipe("r"), runtime=1.0)
        version = given.version
        pool = WorkerPool(2, WorkerConfig(search=FAST_SEARCH), database=given)
        assert pool.database is not given
        assert pool.database.version == given.version
        pool.database.add(PerformanceEmbedding("other", (2.0,) * EMBEDDING_SIZE),
                          Recipe("s"))
        assert len(given) == 1 and given.version == version
        pool.close()

    def test_the_pool_shares_the_callers_entries(self):
        """Entries never change, so the pool takes the caller's entry
        objects as they are instead of a serialised copy of each."""
        given = TuningDatabase()
        for seed in (1.0, 2.0):
            given.add(PerformanceEmbedding(f"nest{seed}",
                                           (seed,) * EMBEDDING_SIZE),
                      Recipe(f"r{seed}"), runtime=seed)
        pool = WorkerPool(2, WorkerConfig(search=FAST_SEARCH), database=given)
        assert pool.database.entries is not given.entries
        assert all(ours is theirs for ours, theirs
                   in zip(pool.database.entries, given.entries, strict=True))
        pool.close()

    def test_closed_pool_refuses_work(self):
        config = WorkerConfig(threads=1, search=FAST_SEARCH)
        pool = WorkerPool(1, config)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.schedule_batch([ScheduleRequest(program="gemm:a")])
        pool.close()  # idempotent

    def test_cache_survives_pool_generations(self, tmp_path):
        cache = str(tmp_path / "generations.sqlite")
        config = WorkerConfig(threads=4, cache_path=cache, search=FAST_SEARCH)
        with WorkerPool(1, config) as pool:
            first = pool.schedule(ScheduleRequest(program="gemm:a"))
            assert not first.from_cache
        with WorkerPool(1, config) as pool:
            second = pool.schedule(ScheduleRequest(program="gemm:a"))
            assert second.from_cache
            assert second.runtime_s == first.runtime_s


# -- the pool transfers like a Session ----------------------------------------------
#
# With an empty database every lane agrees by accident; these seed one.  At
# size small the eight kernels tune to 25 entries, and a worker that sees only
# part of them schedules most ``:b`` variants from other neighbours.

AGREEMENT_KERNELS = ("gemm", "2mm", "atax", "bicg", "mvt", "gesummv", "syrk",
                     "syr2k")


def _agreement_session(database=None):
    """An in-process reference over a copy of ``database``."""
    copy = (TuningDatabase.from_json(database.to_json())
            if database is not None else None)
    return Session(threads=4, size="small", search=FAST_SEARCH, database=copy)


def _agreement_pool(num_workers, database=None):
    config = WorkerConfig(threads=4, size="small", search=FAST_SEARCH)
    return WorkerPool(num_workers, config, database=database)


def _reply(response):
    """What must agree: the modelled runtime, the program and every nest's
    schedule (status, recipe, and where it came from)."""
    return (response.runtime_s, response.to_dict()["program"],
            [info.to_dict() for info in response.result.nests])


def _assert_pool_schedules_like(pool, database):
    reference = _agreement_session(database)
    try:
        requests = [ScheduleRequest(program=f"{name}:b")
                    for name in AGREEMENT_KERNELS]
        pooled = pool.schedule_batch(requests)
        differing = [request.program for request, response
                     in zip(requests, pooled)
                     if _reply(response) != _reply(reference.schedule(request))]
        assert differing == [], (
            f"{len(differing)}/{len(requests)} pooled replies differ from "
            f"the in-process reply: {differing}")
    finally:
        reference.close()
    for worker in pool.report()["per_worker"].values():
        assert worker["database_entries"] == len(database)
        assert worker["database_version"] == pool.database.version


@pytest.fixture(scope="module")
def tuned_database():
    session = _agreement_session()
    try:
        session.seed(AGREEMENT_KERNELS)
        return TuningDatabase.from_json(session.database.to_json())
    finally:
        session.close()


@pytest.fixture(scope="module")
def separately_tuned():
    """Each ``:a`` variant tuned against an empty database, the entries
    appended in kernel order: what ``WorkerPool.tune`` builds."""
    database = TuningDatabase()
    for name in AGREEMENT_KERNELS:
        session = _agreement_session()
        session.tune(f"{name}:a", label=name)
        for entry in session.database.entries:
            database.add_entry(entry)
        session.close()
    return database


@pytest.mark.parametrize("num_workers", [1, 2, 4])
class TestPoolAgreement:
    def test_a_seeded_pool_schedules_like_a_session(self, tuned_database,
                                                    num_workers):
        assert len(tuned_database) == 25
        with _agreement_pool(num_workers, tuned_database) as pool:
            _assert_pool_schedules_like(pool, tuned_database)
            assert pool.database.version == tuned_database.version

    def test_a_pool_tuned_database_schedules_like_a_session(
            self, separately_tuned, num_workers):
        with _agreement_pool(num_workers) as pool:
            tuned = pool.tune([ScheduleRequest(program=f"{name}:a",
                                               tune=True, label=name)
                               for name in AGREEMENT_KERNELS])
            assert not any(isinstance(result, Exception) for result in tuned)
            assert len(pool.database) == pool.stats.gathered_entries > 0
            _assert_pool_schedules_like(pool, pool.database)
            # Every tune ran against the database as the call found it, and
            # the coordinator appended in input order: the result does not
            # depend on how the requests were split over the workers.
            assert pool.database.to_json() == separately_tuned.to_json()

    def test_a_tune_on_a_seeded_pool_keeps_it_agreeing(self, tuned_database,
                                                       num_workers):
        """The coordinator appends a tune's entries after the seeded ones
        and broadcasts them; every worker holds what a session that tuned
        on the same seed holds, and schedules as it does."""
        reference = _agreement_session(tuned_database)
        try:
            reference.tune("3mm:a", label="3mm")
            expected = reference.database.to_json()
        finally:
            reference.close()
        with _agreement_pool(num_workers, tuned_database) as pool:
            tuned, = pool.tune([ScheduleRequest(program="3mm:a",
                                                tune=True, label="3mm")])
            assert not isinstance(tuned, Exception)
            assert len(pool.database) > len(tuned_database)
            assert pool.database.to_json() == expected
            _assert_pool_schedules_like(pool, pool.database)


def _within(seconds, call):
    """``call()`` on a daemon thread: fail the test instead of hanging it."""
    outcome = {}

    def body():
        try:
            outcome["value"] = call()
        except BaseException as error:  # noqa: BLE001 - re-raised below
            outcome["error"] = error

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"{call} still running after {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


class TestDeadWorker:
    def test_killed_worker_fails_in_band_and_survivors_serve(self, tmp_path):
        config = WorkerConfig(threads=2, search=FAST_SEARCH,
                              cache_path=str(tmp_path / "cache.sqlite"))
        pool = WorkerPool(2, config)
        _within(60, pool.start)
        processes = [worker.process for worker in pool._workers]
        os.kill(processes[1].pid, signal.SIGKILL)
        processes[1].join(timeout=10)
        requests = [ScheduleRequest(program=name)
                    for name in ("gemm:a", "mvt:a", "atax:a", "bicg:a")]
        try:
            for _ in range(2):  # the second batch behaves like the first
                results = _within(10, lambda: pool.schedule_batch(requests))
                # Round-robin: items 0 and 2 went to worker 0, 1 and 3 to 1.
                assert [type(result) for result in results[0::2]] \
                    == [ScheduleResponse, ScheduleResponse]
                for failed in results[1::2]:
                    assert isinstance(failed, WorkerError)
                    assert "worker 1" in str(failed)
                for round_trip in (pool.report, pool.metrics):
                    with pytest.raises(WorkerError, match="worker 1"):
                        _within(10, round_trip)
        finally:
            _within(10, pool.close)
        assert not any(process.is_alive() for process in processes)


    def test_get_routes_answer_500_and_keep_the_connection(self,
                                                           monkeypatch):
        pool = WorkerPool(1, WorkerConfig(threads=2, search=FAST_SEARCH))
        _within(60, pool.start)
        os.kill(pool._workers[0].process.pid, signal.SIGKILL)
        pool._workers[0].process.join(timeout=10)
        session = Session(threads=2)
        try:
            with ServingServer(session, pool=pool) as server:
                handler = server._httpd.RequestHandlerClass
                setup, connects = handler.setup, []

                def counted_setup(self):
                    connects.append(self)
                    setup(self)
                monkeypatch.setattr(handler, "setup", counted_setup)
                with ServingClient(server.address) as client:
                    for path in ("/v1/report?workers=1", "/metrics?workers=1"):
                        assert _within(10, lambda: client.request(
                            "GET", path)) == (500, {
                                "error": "WorkerError: WorkerExited: worker 0 "
                                         "exited (exit code -9)"}), path
                    assert _within(10, client.health)["status"] == "ok"
                assert len(connects) == 1
        finally:
            session.close()
            _within(10, pool.close)

    def test_a_tune_broadcast_reaches_the_survivors_then_raises(self):
        pool = WorkerPool(2, WorkerConfig(threads=2, search=FAST_SEARCH))
        _within(60, pool.start)
        os.kill(pool._workers[1].process.pid, signal.SIGKILL)
        pool._workers[1].process.join(timeout=10)
        try:
            # One request: worker 0 tunes it, then every worker is sent
            # the entries.
            with pytest.raises(WorkerError, match="worker 1"):
                _within(60, lambda: pool.tune([ScheduleRequest(
                    program="gemm:a", tune=True, label="gemm")]))
            assert len(pool.database) > 0
            survivor = _within(10, lambda: pool._exchange(
                {0: ("report", None)})[0])
            assert survivor["database_version"] == pool.database.version
        finally:
            _within(10, pool.close)


class TestMergeWorkerReports:
    def test_counters_sum_and_the_database_is_reported_once(self):
        merged = merge_worker_reports([
            {"schedule_calls": 2, "database_entries": 3,
             "database_version": "3:abc",
             "schedulers": ["daisy"], "cache_backend": "sqlite",
             "normalization_passes": {"fission": {"runs": 1,
                                                  "wall_time_s": 0.5}}},
            {"schedule_calls": 5, "database_entries": 3,
             "database_version": "3:abc",
             "schedulers": ["daisy", "clang"], "cache_backend": "sqlite",
             "normalization_passes": {"fission": {"runs": 2,
                                                  "wall_time_s": 0.25}}},
        ])
        assert merged["schedule_calls"] == 7
        # Every worker holds the whole database: it is not summed.
        assert merged["database_entries"] == 3
        assert merged["database_version"] == "3:abc"
        assert merged["schedulers"] == ["clang", "daisy"]
        assert merged["cache_backend"] == "sqlite"
        assert merged["normalization_passes"]["fission"] == {
            "runs": 3, "wall_time_s": 0.75}


# -- priority ordering --------------------------------------------------------------

def _drain(session, requests):
    """Stack ``requests``, in order, behind a held gate request (the
    batcher is pinned while they queue); returns the runner's stats."""
    with ServiceRunner(session, ServiceConfig(max_batch_size=1)) as runner:
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
        # Alice's first request is held in the executor (the gate); her
        # second arrives while it is in flight and must be shed.
        session = StubSession()
        config = ServiceConfig(max_batch_size=1, max_client_inflight=1)
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
        config = ServiceConfig(max_batch_size=1,
                               max_queue_depth=1, retry_after_s=0.25)
        with ServingServer(session, config=config) as server:
            # The first batch runs once a request was shed: until then one
            # request runs, one waits, and the rest find the queue full.
            runner = server.runner
            hold_next_batch(runner, lambda: runner.stats.rejected >= 1)
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
        config = ServiceConfig(max_batch_size=1, max_client_inflight=1)
        with ServingServer(session, config=config) as server:
            # Alice's first request runs once one of hers was shed.
            runner = server.runner
            hold_next_batch(runner, lambda: runner.stats.rejected >= 1)
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
        config = ServiceConfig(max_batch_size=1,
                               max_client_inflight=1, retry_after_s=2.0)
        with ServingServer(session, config=config) as server:
            runner = server.runner
            hold_next_batch(runner, lambda: runner.stats.rejected >= 1)
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


class TestPoolThroughService:
    def test_server_schedules_through_the_pool(self, shared_pool, tmp_path):
        pool, cache = shared_pool
        session = Session(threads=4)
        with ServingServer(session, pool=pool) as server:
            client = ServingClient(server.address)
            response = client.schedule("gemver:a", priority=0,
                                       client="test-suite")
            assert response.runtime_s > 0
            assert response.program.body
            report = client.report()
            assert report["pool"]["num_workers"] == 2
            assert report["pool"]["scheduled"] >= 1
            status, full = client.request("GET", "/v1/report?workers=1")
            assert status == 200
            assert full["pool"]["reports_collected"] == 2
            assert full["pool"]["merged"]["schedule_calls"] >= 1
        session.close()

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP items 4 and 20: workers._rebuild_error rebuilds only builtin "
        "and registry error types by name, so a worker's ValidationError "
        "comes back as a WorkerError and the reply is a 500, not a 400"))
    def test_a_malformed_request_through_the_pool_is_400(self, shared_pool):
        pool, _ = shared_pool
        program, parameters = malformed_gemm("unbound-parameter")
        session = Session(threads=4)
        with ServingServer(session, pool=pool) as server:
            status, payload = ServingClient(server.address).request(
                "POST", "/v1/schedule", ScheduleRequest(
                    program=program, parameters=parameters).to_dict())
        session.close()
        assert "ValidationError" in payload["error"]
        assert status == 400, (status, payload)
