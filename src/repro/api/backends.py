"""Pluggable storage backends for the content-addressed caches.

:class:`~repro.api.cache.NormalizationCache` speaks to a
:class:`CacheBackend`: a namespaced key/value store with LRU bounds and
hit/write/eviction accounting.  Two backends ship:

* :class:`MemoryCacheBackend` — per-namespace ``OrderedDict`` LRU stores
  holding live Python objects.  This is the historical in-process behavior
  and the default of every :class:`~repro.api.Session`.
* :class:`SQLiteCacheBackend` — an on-disk store (stdlib ``sqlite3``) so
  normalized and scheduled entries survive process restarts.  Values are
  serialized to JSON through per-namespace codecs bound by the cache layer;
  a small write-through in-memory hot layer keeps repeat lookups cheap.
  The backend distinguishes *memory hits* (served from the hot layer) from
  *disk hits* (decoded from SQLite), which :meth:`repro.api.Session.report`
  surfaces.  The store is safe to share between several processes (WAL
  journal, busy timeout, retried writes, SQL-side recency stamps): two
  ``serve`` processes, or a ``serve`` and a ``warm-cache`` run, may open
  one cache file.

Backends are deliberately ignorant of what they store: the cache layer
binds ``encode``/``decode`` callables per namespace (:meth:`CacheBackend.bind`)
so that entry types stay defined next to the cache that owns them.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

Encoder = Callable[[Any], Dict[str, Any]]
Decoder = Callable[[Dict[str, Any]], Any]


@dataclass
class BackendStats:
    """Hit/write/eviction accounting of one backend instance (misses are
    counted once, by the cache's ``repro_cache_requests_total``).

    ``busy_retries`` counts writes that found the store locked by another
    process and succeeded on a later attempt (only persistent backends
    shared across processes ever increment it).
    """

    memory_hits: int = 0
    disk_hits: int = 0
    writes: int = 0
    evictions: int = 0
    busy_retries: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "writes": self.writes,
            "evictions": self.evictions,
            "busy_retries": self.busy_retries,
        }


class CacheBackend:
    """Interface every cache storage backend implements.

    A backend is a map ``(namespace, key) -> value`` with LRU recency per
    namespace.  ``get`` refreshes recency; ``put`` may evict the least
    recently used entries of the namespace once it exceeds the backend's
    bound.  All methods must be thread-safe: one backend is shared by every
    thread that uses its session (serving handler threads, the batcher,
    direct callers).
    """

    #: Short identifier surfaced in ``Session.report()``.
    name = "backend"

    def __init__(self) -> None:
        self.stats = BackendStats()
        self._codecs: Dict[str, Tuple[Encoder, Decoder]] = {}
        self._raw_namespaces: set = set()

    def bind(self, namespace: str, encode: Encoder, decode: Decoder,
             raw: bool = False) -> None:
        """Register the serialization codec of one namespace.

        In-memory backends may ignore the codec; persistent backends use it
        to map values to and from JSON payloads.  With ``raw=True`` the
        codec speaks payload *strings* directly (``encode`` returns the
        exact text to persist, ``decode`` receives it verbatim) and
        persistent backends skip the JSON round-trip entirely — this is how
        the response cache stores pre-encoded bytes that are served without
        re-parsing.
        """
        self._codecs[namespace] = (encode, decode)
        if raw:
            self._raw_namespaces.add(namespace)
        else:
            self._raw_namespaces.discard(namespace)

    # -- storage interface -------------------------------------------------------

    def get(self, namespace: str, key: str) -> Optional[Any]:
        raise NotImplementedError

    def put(self, namespace: str, key: str, value: Any) -> None:
        raise NotImplementedError

    def sizes(self) -> Dict[str, int]:
        """Entry counts per namespace."""
        raise NotImplementedError

    def close(self) -> None:
        """Release resources (no-op for in-memory backends)."""

    def __len__(self) -> int:
        return sum(self.sizes().values())


class MemoryCacheBackend(CacheBackend):
    """Per-namespace ``OrderedDict`` LRU stores holding live objects."""

    name = "memory"

    def __init__(self, max_entries: int = 1024):
        super().__init__()
        self.max_entries = max_entries
        self._lock = threading.RLock()
        self._stores: Dict[str, "OrderedDict[str, Any]"] = {}

    def _store(self, namespace: str) -> "OrderedDict[str, Any]":
        store = self._stores.get(namespace)
        if store is None:
            store = self._stores[namespace] = OrderedDict()
        return store

    def get(self, namespace: str, key: str) -> Optional[Any]:
        with self._lock:
            store = self._store(namespace)
            value = store.get(key)
            if value is None:
                return None
            store.move_to_end(key)
            self.stats.memory_hits += 1
            return value

    def put(self, namespace: str, key: str, value: Any) -> None:
        with self._lock:
            store = self._store(namespace)
            store[key] = value
            store.move_to_end(key)
            self.stats.writes += 1
            while len(store) > self.max_entries:
                store.popitem(last=False)
                self.stats.evictions += 1

    def sizes(self) -> Dict[str, int]:
        with self._lock:
            return {namespace: len(store)
                    for namespace, store in self._stores.items()}


class SQLiteCacheBackend(CacheBackend):
    """On-disk cache store; entries survive process restarts and may be
    shared concurrently by several processes.

    One table holds every namespace; ``seq`` is a monotonically increasing
    recency stamp (bumped on every hit) that implements LRU eviction without
    wall-clock timestamps.  A bounded write-through hot layer serves repeat
    lookups without touching SQLite or the codec.

    Cross-process safety (one backend in each of several processes, all on
    the same file):

    * the connection runs in **WAL mode** so readers never block the single
      writer and vice versa (falls back to the default journal silently on
      filesystems without WAL support),
    * a **busy timeout** (default 5 s) makes SQLite wait for a competing
      writer instead of failing immediately, and writes that still find the
      store locked are retried with backoff
      (:attr:`BackendStats.busy_retries` counts them),
    * recency stamps are computed **inside SQL**
      (``COALESCE(MAX(seq), 0) + 1``) rather than from a per-process
      counter, so stamps from different processes interleave monotonically
      and eviction order stays globally consistent.

    The hot layer is per-process by design: an entry written by one process
    is served to another from disk on first access and from that process's
    hot layer afterwards.
    """

    name = "sqlite"

    _SCHEMA = """
        CREATE TABLE IF NOT EXISTS cache (
            namespace TEXT NOT NULL,
            key TEXT NOT NULL,
            payload TEXT NOT NULL,
            seq INTEGER NOT NULL,
            PRIMARY KEY (namespace, key)
        )
    """
    #: The seq index keeps the SQL-side recency stamps (MAX(seq)+1 per touch
    #: and insert) and LRU eviction (ORDER BY seq) off full-table scans.
    _SEQ_INDEX = "CREATE INDEX IF NOT EXISTS cache_seq ON cache(seq)"
    #: Attempts per write before a persistent lock is surfaced to the caller.
    _WRITE_ATTEMPTS = 5

    def __init__(self, path: str, max_entries: int = 4096,
                 hot_entries: int = 128, busy_timeout_s: float = 5.0):
        super().__init__()
        self.path = path
        self.max_entries = max_entries
        self.hot_entries = hot_entries
        self._lock = threading.RLock()
        self._closed = False
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.execute(f"PRAGMA busy_timeout = {int(busy_timeout_s * 1000)}")
        self._conn.execute("PRAGMA synchronous = NORMAL")
        self._with_write_retries(self._create_schema)
        self._hot: Dict[str, "OrderedDict[str, Any]"] = {}
        # Recency updates are buffered here (insertion-ordered) and flushed
        # on the next write or on close, so cache hits never pay a SQLite
        # write.  Values are unused; the dict keeps touch order.
        self._dirty_seq: Dict[Tuple[str, str], None] = {}

    def _create_schema(self) -> None:
        # WAL lets concurrent processes read while one writes; on
        # filesystems that refuse it SQLite keeps the rollback journal and
        # the busy timeout still serializes writers correctly.  Switching a
        # fresh file to WAL takes an exclusive lock that SQLite reports as
        # busy without waiting out the timeout, so processes opening the
        # same new file at once retry it with the schema.
        self._conn.execute("PRAGMA journal_mode = WAL")
        self._conn.execute(self._SCHEMA)
        self._conn.execute(self._SEQ_INDEX)
        self._conn.commit()

    def _with_write_retries(self, operation: Callable[[], None]) -> None:
        """Run a write transaction, retrying when another process holds the
        write lock longer than the busy timeout."""
        delay = 0.05
        for attempt in range(self._WRITE_ATTEMPTS):
            try:
                operation()
                return
            except sqlite3.OperationalError as error:
                self._conn.rollback()
                message = str(error).lower()
                locked = "locked" in message or "busy" in message
                if not locked or attempt == self._WRITE_ATTEMPTS - 1:
                    raise
                self.stats.busy_retries += 1
                time.sleep(delay)
                delay *= 2

    def _codec(self, namespace: str) -> Tuple[Encoder, Decoder]:
        try:
            return self._codecs[namespace]
        except KeyError:
            raise KeyError(
                f"no codec bound for namespace {namespace!r}; call bind() first")

    def _hot_store(self, namespace: str) -> "OrderedDict[str, Any]":
        store = self._hot.get(namespace)
        if store is None:
            store = self._hot[namespace] = OrderedDict()
        return store

    def _remember(self, namespace: str, key: str, value: Any) -> None:
        store = self._hot_store(namespace)
        store[key] = value
        store.move_to_end(key)
        while len(store) > self.hot_entries:
            store.popitem(last=False)

    def _touch(self, namespace: str, key: str) -> None:
        """Record recency in memory; persisted lazily by ``_flush_touches``."""
        # Re-touching moves the key to the back of the flush order.
        self._dirty_seq.pop((namespace, key), None)
        self._dirty_seq[(namespace, key)] = None

    def _flush_touches(self) -> None:
        """Write buffered recency updates (called inside a write transaction
        before eviction decisions and on close, so the on-disk LRU order
        reflects every hit).  The stamp is computed in SQL so that touches
        from concurrent processes interleave monotonically.  The caller
        clears the buffer only after its transaction commits — a busy retry
        re-runs these updates."""
        if not self._dirty_seq:
            return
        self._conn.executemany(
            "UPDATE cache SET seq = (SELECT COALESCE(MAX(seq), 0) + 1 FROM cache) "
            "WHERE namespace = ? AND key = ?",
            list(self._dirty_seq))

    def get(self, namespace: str, key: str) -> Optional[Any]:
        with self._lock:
            hot = self._hot_store(namespace)
            value = hot.get(key)
            if value is not None:
                hot.move_to_end(key)
                self.stats.memory_hits += 1
                self._touch(namespace, key)
                return value
            row = self._conn.execute(
                "SELECT payload FROM cache WHERE namespace = ? AND key = ?",
                (namespace, key)).fetchone()
            if row is None:
                return None
            _, decode = self._codec(namespace)
            try:
                # Raw namespaces persist the payload text verbatim: decoding
                # hands the string straight to the codec, no JSON parse.
                if namespace in self._raw_namespaces:
                    value = decode(row[0])
                else:
                    value = decode(json.loads(row[0]))
            except Exception:
                # A stale or incompatible payload (e.g. written by an older
                # schema of the entry types) must not poison the cache.  The
                # delete is best-effort: losing it to a concurrent writer's
                # lock only means the stale row is dropped on a later miss.
                try:
                    self._conn.execute(
                        "DELETE FROM cache WHERE namespace = ? AND key = ?",
                        (namespace, key))
                    self._conn.commit()
                except sqlite3.OperationalError:
                    self._conn.rollback()
                return None
            self.stats.disk_hits += 1
            self._remember(namespace, key, value)
            self._touch(namespace, key)
            return value

    def put(self, namespace: str, key: str, value: Any) -> None:
        encode, _ = self._codec(namespace)
        if namespace in self._raw_namespaces:
            payload = encode(value)
        else:
            payload = json.dumps(encode(value), sort_keys=True)

        victims: "list[str]" = []

        def write() -> None:
            # A retry re-runs the whole transaction, so nothing here may
            # mutate Python-side state — that happens after the commit.
            victims.clear()
            self._flush_touches()
            self._conn.execute(
                "INSERT OR REPLACE INTO cache (namespace, key, payload, seq) "
                "VALUES (?, ?, ?, (SELECT COALESCE(MAX(seq), 0) + 1 FROM cache))",
                (namespace, key, payload))
            victims.extend(self._evict(namespace))
            self._conn.commit()

        with self._lock:
            self._with_write_retries(write)
            self._dirty_seq.clear()
            self.stats.writes += 1
            hot = self._hot_store(namespace)
            for victim in victims:
                hot.pop(victim, None)
                self.stats.evictions += 1
            self._remember(namespace, key, value)

    def _evict(self, namespace: str) -> "list[str]":
        """Delete the LRU excess of one namespace; returns the victim keys.

        Runs inside the write transaction and touches only SQLite state
        (a busy retry rolls the deletes back and re-runs them); the caller
        updates stats and the hot layer after the commit succeeds.
        """
        count = self._conn.execute(
            "SELECT COUNT(*) FROM cache WHERE namespace = ?",
            (namespace,)).fetchone()[0]
        excess = count - self.max_entries
        if excess <= 0:
            return []
        victims = [key for (key,) in self._conn.execute(
            "SELECT key FROM cache WHERE namespace = ? ORDER BY seq ASC LIMIT ?",
            (namespace, excess))]
        for key in victims:
            self._conn.execute(
                "DELETE FROM cache WHERE namespace = ? AND key = ?",
                (namespace, key))
        return victims

    def sizes(self) -> Dict[str, int]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT namespace, COUNT(*) FROM cache GROUP BY namespace").fetchall()
            return {namespace: count for namespace, count in rows}

    def close(self) -> None:
        def flush() -> None:
            self._flush_touches()
            self._conn.commit()

        with self._lock:
            # Idempotent: Session.close() documents that a second close is a
            # no-op, and sqlite3 raises on operating on a closed connection.
            if self._closed:
                return
            self._closed = True
            try:
                self._with_write_retries(flush)
            except sqlite3.OperationalError:
                # Recency stamps are advisory; never fail a close over them.
                pass
            self._dirty_seq.clear()
            self._conn.close()
