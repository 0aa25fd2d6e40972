"""Tests for the pluggable cache backends and persistent sessions, one
SQLite cache file shared by several processes included."""

import multiprocessing
import threading

import pytest
from helpers import GEMM_PARAMS as PARAMS
from helpers import build_gemm, build_vector_add, fast_session

from repro.api import MemoryCacheBackend, SQLiteCacheBackend


class TestMemoryBackend:
    def test_namespaces_are_independent(self):
        backend = MemoryCacheBackend(max_entries=8)
        backend.put("a", "k", 1)
        backend.put("b", "k", 2)
        assert backend.get("a", "k") == 1
        assert backend.get("b", "k") == 2
        assert backend.sizes() == {"a": 1, "b": 1}
        assert len(backend) == 2

    def test_lru_eviction_per_namespace(self):
        backend = MemoryCacheBackend(max_entries=2)
        backend.put("ns", "one", 1)
        backend.put("ns", "two", 2)
        backend.get("ns", "one")  # refresh recency: "two" is now oldest
        backend.put("ns", "three", 3)
        assert backend.stats.evictions == 1
        assert backend.get("ns", "two") is None
        assert backend.get("ns", "one") == 1

    def test_hit_and_miss_counters(self):
        backend = MemoryCacheBackend()
        assert backend.get("ns", "absent") is None
        backend.put("ns", "k", 1)
        backend.get("ns", "k")
        assert backend.stats.memory_hits == 1
        assert backend.stats.disk_hits == 0
        assert backend.stats.writes == 1


class TestSQLiteBackend:
    def _backend(self, tmp_path, **kwargs):
        backend = SQLiteCacheBackend(str(tmp_path / "cache.sqlite"), **kwargs)
        backend.bind("ns", lambda value: {"value": value},
                     lambda payload: payload["value"])
        return backend

    def test_put_get_roundtrip(self, tmp_path):
        backend = self._backend(tmp_path)
        backend.put("ns", "k", [1, 2, 3])
        assert backend.get("ns", "k") == [1, 2, 3]
        assert backend.stats.memory_hits == 1  # served by the hot layer
        backend.close()

    def test_entries_survive_reopen_as_disk_hits(self, tmp_path):
        first = self._backend(tmp_path)
        first.put("ns", "k", "payload")
        first.close()
        second = self._backend(tmp_path)
        assert second.get("ns", "k") == "payload"
        assert second.stats.disk_hits == 1
        # A repeat is now hot in memory.
        assert second.get("ns", "k") == "payload"
        assert second.stats.memory_hits == 1
        second.close()

    def test_lru_eviction_on_disk(self, tmp_path):
        backend = self._backend(tmp_path, max_entries=2)
        backend.put("ns", "one", 1)
        backend.put("ns", "two", 2)
        backend.get("ns", "one")
        backend.put("ns", "three", 3)
        assert backend.stats.evictions == 1
        assert backend.get("ns", "two") is None
        assert backend.get("ns", "one") == 1
        assert backend.sizes() == {"ns": 2}
        backend.close()

    def test_unreadable_payload_is_a_miss_not_a_crash(self, tmp_path):
        backend = self._backend(tmp_path)
        backend.put("ns", "k", "fine")
        backend._conn.execute(
            "UPDATE cache SET payload = '{\"bogus\": true}' WHERE key = 'k'")
        backend._conn.commit()
        backend._hot.clear()
        assert backend.get("ns", "k") is None
        # The poisoned row was dropped entirely.
        assert backend.sizes().get("ns", 0) == 0
        backend.close()

    def test_unbound_namespace_raises(self, tmp_path):
        backend = SQLiteCacheBackend(str(tmp_path / "cache.sqlite"))
        with pytest.raises(KeyError, match="no codec"):
            backend.put("never-bound", "k", 1)
        backend.close()

    def test_concurrent_writers_and_readers(self, tmp_path):
        backend = self._backend(tmp_path, max_entries=64)
        errors = []

        def worker(start):
            try:
                for i in range(start, start + 20):
                    backend.put("ns", f"k{i % 8}", i)
                    backend.get("ns", f"k{i % 8}")
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(n * 20,))
                   for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert backend.sizes()["ns"] == 8
        backend.close()


class TestPersistentSession:
    def test_sqlite_cache_survives_session_restart(self, tmp_path):
        """The acceptance-criterion scenario: schedule through a
        SQLite-backed session, recreate the session from the same path, and
        the identical request is a full cache hit — no re-normalization, no
        re-scheduling."""
        path = str(tmp_path / "cache.sqlite")

        first = fast_session(cache_path=path)
        cold = first.schedule(build_gemm(), PARAMS)
        assert not cold.from_cache
        assert first.report().cache_backend == "sqlite"
        assert first.report().cache_writes >= 2  # normalization + schedule
        first.cache.close()

        second = fast_session(cache_path=path)
        warm = second.schedule(build_gemm(), PARAMS)
        assert warm.from_cache                    # no re-scheduling
        assert warm.normalization_cache_hit       # no re-normalization
        assert warm.runtime_s == cold.runtime_s
        assert warm.canonical_hash == cold.canonical_hash
        report = second.report()
        assert report.cache_disk_hits == 2        # both levels came from disk
        assert report.schedule_cache_hits == 1
        assert report.normalization_misses == 0
        second.cache.close()

    def test_equivalent_variant_served_across_restart(self, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        first = fast_session(cache_path=path)
        first.schedule(build_gemm(("i", "j", "k")), PARAMS)
        first.cache.close()

        second = fast_session(cache_path=path)
        # A different loop order normalizes onto the cached canonical form.
        variant = second.schedule(build_gemm(("k", "i", "j")), PARAMS)
        assert variant.from_cache
        assert not variant.normalization_cache_hit  # this order was never seen
        second.cache.close()

    def test_explicit_backend_wins_over_path(self, tmp_path):
        backend = MemoryCacheBackend()
        session = fast_session(cache_backend=backend,
                               cache_path=str(tmp_path / "ignored.sqlite"))
        assert session.cache.backend is backend
        assert session.report().cache_backend == "memory"

    def test_served_programs_are_copies_after_restart(self, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        first = fast_session(cache_path=path)
        first.schedule(build_vector_add(), {"N": 4096})
        first.cache.close()
        second = fast_session(cache_path=path)
        served = second.schedule(build_vector_add(), {"N": 4096})
        served.program.body.clear()
        again = second.schedule(build_vector_add(), {"N": 4096})
        assert again.program.body
        second.cache.close()

    def test_different_database_does_not_reuse_persisted_schedules(self, tmp_path):
        """Schedule keys embed a content-derived database version: restarting
        on the same cache file with a *different* tuning database (even of
        equal size) must re-schedule, not serve the other database's
        schedules."""
        from repro.api import TuningDatabase
        from repro.scheduler.embedding import EMBEDDING_SIZE, PerformanceEmbedding
        from repro.transforms.recipe import Recipe

        def one_entry_db(seed):
            database = TuningDatabase()
            database.add(PerformanceEmbedding(
                label=f"n{seed}",
                vector=tuple(float(seed + i) for i in range(EMBEDDING_SIZE))),
                Recipe(f"r{seed}"))
            return database

        path = str(tmp_path / "cache.sqlite")
        first = fast_session(cache_path=path, database=one_entry_db(1))
        first.schedule(build_gemm(), PARAMS)
        first.cache.close()

        second = fast_session(cache_path=path, database=one_entry_db(2))
        served = second.schedule(build_gemm(), PARAMS)
        assert not served.from_cache  # different database content → re-schedule
        second.cache.close()

        third = fast_session(cache_path=path, database=one_entry_db(1))
        served = third.schedule(build_gemm(), PARAMS)
        assert served.from_cache      # same database content → cache hit
        third.cache.close()

    def test_sessions_share_one_sqlite_file_live(self, tmp_path):
        """Two concurrently-open sessions see each other's entries (one
        writes, the other reads — the single-file analogue of two serving
        replicas sharing a cache volume)."""
        path = str(tmp_path / "cache.sqlite")
        writer = fast_session(cache_path=path)
        reader = fast_session(cache_path=path)
        writer.schedule(build_gemm(), PARAMS)
        served = reader.schedule(build_gemm(), PARAMS)
        assert served.from_cache
        writer.cache.close()
        reader.cache.close()


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
    process doing the same, as two servers on one new cache file do."""
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
        busy timeout; a backend must retry it rather than fail its
        process's session build."""
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
