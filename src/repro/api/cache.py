"""Content-addressed normalization and schedule caching.

The cache has three levels, all keyed by content hashes
(:mod:`repro.api.hashing`) and safe to share across threads (a serving
layer's handler threads read it while its batcher schedules):

* **normalization level** — ``hash(program as written, pipeline identity,
  parameters) -> normalized program``.  Re-scheduling the same program
  skips fission + stride minimization; results from one pipeline (e.g. the
  ``"no-fission"`` ablation) are never served for another.
* **schedule level** — ``hash(canonical form) -> scheduled program``.
  Because a-priori normalization maps equivalent variants onto one canonical
  form, scheduling the B variant of a benchmark after the A variant (or GEMM
  in a second loop order) is served from the cache without re-running the
  scheduler at all.
* **response level** — ``request fingerprint -> pre-encoded response bytes``
  (:class:`ResponseEntry`).  The serving fast lane stores the final JSON a
  response encodes to, split around the per-request echo, and serves repeat
  requests without touching the session, the IR, or a JSON parser.

Storage is delegated to a pluggable :class:`~repro.api.backends.CacheBackend`
(:class:`~repro.api.backends.MemoryCacheBackend` by default; the SQLite
backend persists all levels across restarts).  Entries are bounded by an
LRU policy; cached programs are handed out as copy-on-write snapshots —
frozen loop trees shared structurally between the cache and every hit, with
receivers taking a private ``copy()`` only when they actually rewrite.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional, Tuple

from ..ir.nodes import Program
from ..ir.serialization import program_from_dict, program_to_dict
from ..normalization.pipeline import (NormalizationOptions,
                                      NormalizationReport, normalize)
from ..observability import CounterView, MetricsRegistry
from ..observability.tracing import span as trace_span
from ..passes.base import PassStats
from ..scheduler.base import ScheduleResult
from .backends import CacheBackend, MemoryCacheBackend
from .hashing import fingerprint, program_content_hash

#: Backend namespace of the normalization level.
NORMALIZED_NAMESPACE = "normalized"
#: Backend namespace of the schedule level.
SCHEDULE_NAMESPACE = "schedules"
#: Backend namespace of the response level (pre-encoded response bytes).
RESPONSE_NAMESPACE = "responses"
#: The size bindings a normalized entry was once keyed by.  A normal form
#: takes no sizes, but the digest stays in the key: it is part of every
#: persisted normalized key and of the ``input_hash`` of every reply.
NO_PARAMETERS = fingerprint({})


@dataclass(frozen=True)
class CacheStats:
    """A snapshot of the cache levels' hits and misses (and the backend's
    evictions) at the moment :attr:`NormalizationCache.stats` was read."""

    normalization_hits: int = 0
    normalization_misses: int = 0
    schedule_hits: int = 0
    schedule_misses: int = 0
    response_hits: int = 0
    response_misses: int = 0
    evictions: int = 0

    def to_dict(self) -> Dict[str, int]:
        return asdict(self)


@dataclass
class NormalizedEntry:
    """One cached normalization outcome.

    ``program`` is owned by the cache; :meth:`take` hands out copy-on-write
    snapshots whose (frozen) loop tree is shared with the cached entry.
    """

    program: Program
    report: NormalizationReport
    input_hash: str
    canonical_hash: str
    hit: bool = False

    def take(self) -> "NormalizedEntry":
        return NormalizedEntry(self.program.snapshot(), self.report,
                               self.input_hash, self.canonical_hash, self.hit)


def _encode_normalized(entry: NormalizedEntry) -> Dict[str, Any]:
    return {
        "program": program_to_dict(entry.program),
        "report": entry.report.to_dict(),
        "input_hash": entry.input_hash,
        "canonical_hash": entry.canonical_hash,
    }


def _decode_normalized(payload: Dict[str, Any]) -> NormalizedEntry:
    return NormalizedEntry(
        program=program_from_dict(dict(payload["program"])),
        report=NormalizationReport.from_dict(payload["report"]),
        input_hash=payload["input_hash"],
        canonical_hash=payload["canonical_hash"],
    )


@dataclass
class ScheduleEntry:
    """One cached scheduling outcome (per scheduler/parameters/canonical form)."""

    result: ScheduleResult
    runtime_s: float

    def take(self) -> Tuple[ScheduleResult, float]:
        return self.result.share(), self.runtime_s


def _encode_schedule(entry: ScheduleEntry) -> Dict[str, Any]:
    return {"result": entry.result.to_dict(), "runtime_s": entry.runtime_s}


def _decode_schedule(payload: Dict[str, Any]) -> ScheduleEntry:
    return ScheduleEntry(result=ScheduleResult.from_dict(payload["result"]),
                         runtime_s=float(payload["runtime_s"]))


@dataclass
class ResponseEntry:
    """One cached fully-encoded schedule response (the serving fast lane).

    ``before``/``after`` are the JSON text of the response up to and from
    the per-request echo: ``before + json.dumps(request.to_dict()) + after``
    reproduces ``json.dumps(response.to_dict())`` byte for byte (minus the
    trace id, which the server splices per request).  Splitting around the
    echo lets one entry serve every request that coalesces onto the same
    fingerprint, whatever its priority, client, label, or trace context.
    """

    before: str
    after: str


def _encode_response(entry: ResponseEntry) -> str:
    # Raw codec: the persisted payload IS this text.  A newline can never
    # occur inside compact JSON (strings escape it as \n), so it is a safe
    # separator.
    return entry.before + "\n" + entry.after


def _decode_response(payload: str) -> ResponseEntry:
    before, _, after = payload.partition("\n")
    return ResponseEntry(before, after)


class NormalizationCache:
    """Three-level content-addressed cache shared by one (or more) sessions."""

    def __init__(self, max_entries: int = 1024,
                 backend: Optional[CacheBackend] = None,
                 metrics: Optional[MetricsRegistry] = None):
        # ``if backend is not None``, not ``or``: an empty backend is falsy
        # through ``__len__`` and must still win over the default.
        self.backend = backend if backend is not None else MemoryCacheBackend(max_entries)
        self.backend.bind(NORMALIZED_NAMESPACE,
                          _encode_normalized, _decode_normalized)
        self.backend.bind(SCHEDULE_NAMESPACE, _encode_schedule, _decode_schedule)
        self.backend.bind(RESPONSE_NAMESPACE, _encode_response,
                          _decode_response, raw=True)
        #: Aggregated per-pass timings/change counters of every run.
        self.pass_stats = PassStats()
        #: Instrument registry (a session that builds this cache passes its
        #: own, so cache and session telemetry land in one registry).
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        requests = self.metrics.counter(
            "repro_cache_requests_total",
            "Content-addressed cache lookups by level and outcome.",
            ("level", "outcome"))
        # Each level's (miss, hit) series, bound once: a lookup indexes the
        # pair by whether it found an entry.
        outcomes = {level: (requests.labels(level, "miss"),
                            requests.labels(level, "hit"))
                    for level in ("normalization", "schedule", "response")}
        self._normalized_outcomes = outcomes["normalization"]
        self._schedule_outcomes = outcomes["schedule"]
        self._response_outcomes = outcomes["response"]
        #: What this cache served since it was built, read off those
        #: series (``stats`` snapshots it).
        self._served = CounterView({
            f"{level}_{name}": series
            for level, pair in outcomes.items()
            for name, series in zip(("misses", "hits"), pair)})

    @property
    def stats(self) -> CacheStats:
        """A snapshot of the lookups since construction, read off
        ``repro_cache_requests_total``; evictions come from the backend
        (the single source of truth, also visible to other caches sharing
        it)."""
        return CacheStats(**self._served.to_dict(),
                          evictions=self.backend.stats.evictions)

    # -- normalization level -----------------------------------------------------

    def normalized(self, program: Program,
                   options: Optional[NormalizationOptions] = None) -> NormalizedEntry:
        """Normalize ``program`` through the cache.

        Returns a :class:`NormalizedEntry` whose ``program`` is a fresh copy;
        ``hit`` records whether fission/stride minimization were skipped.
        """
        options = options or NormalizationOptions()
        # The *resolved pipeline identity* (name + ordered pass structure) is
        # part of the key, so results from one pipeline (e.g. "no-fission")
        # can never be served for another (e.g. the full "a-priori") — in
        # every backend, since backends store these key strings verbatim.
        pipeline = options.to_pipeline()
        key = program_content_hash(program, extra={
            "pipeline": pipeline.identity(),
            "parameters": NO_PARAMETERS,
        })
        with trace_span("cache.lookup", level="normalization") as lookup:
            entry = self.backend.get(NORMALIZED_NAMESPACE, key)
            lookup.set_attribute("outcome",
                                 "hit" if entry is not None else "miss")
        self._normalized_outcomes[entry is not None].inc()
        if entry is not None:
            served = entry.take()
            served.hit = True
            return served

        with trace_span("normalize.pipeline",
                        pipeline=getattr(pipeline, "name", "pipeline")):
            normalized, report = normalize(program, options,
                                           pipeline=pipeline)
        self.pass_stats.add(report.passes)
        canonical_hash = program_content_hash(normalized)
        entry = NormalizedEntry(normalized, report, key, canonical_hash)
        self.backend.put(NORMALIZED_NAMESPACE, key, entry)
        return entry.take()

    # -- schedule level ------------------------------------------------------------

    def schedule_key(self, canonical_hash: str, scheduler: str, threads: int,
                     parameters: Optional[Any],
                     database_version: Optional[int] = None) -> str:
        """Key for one scheduling outcome.

        ``database_version`` must be supplied for database-backed schedulers:
        tuning grows the database, and entries cached before a ``tune()``
        would otherwise shadow the better transfer-tuned schedules available
        afterwards.  Keys are plain strings so that every backend (including
        on-disk ones) can store them verbatim.
        """
        return "|".join((canonical_hash, scheduler, str(threads),
                         fingerprint(dict(parameters or {})),
                         str(database_version)))

    def lookup_schedule(self, key: str) -> Optional[Tuple[ScheduleResult, float]]:
        with trace_span("cache.lookup", level="schedule") as lookup:
            entry = self.backend.get(SCHEDULE_NAMESPACE, key)
            lookup.set_attribute("outcome",
                                 "hit" if entry is not None else "miss")
        self._schedule_outcomes[entry is not None].inc()
        return entry.take() if entry is not None else None

    def store_schedule(self, key: str, result: ScheduleResult,
                       runtime_s: float) -> None:
        entry = ScheduleEntry(result.copy(), runtime_s)
        self.backend.put(SCHEDULE_NAMESPACE, key, entry)

    # -- response level ------------------------------------------------------------

    def lookup_response(self, key: str) -> Optional[ResponseEntry]:
        """Fetch the pre-encoded response bytes of one request fingerprint.

        Entries are immutable text, so hits are served without copying,
        decoding, or touching the IR — this is the serving fast lane.
        """
        entry = self.backend.get(RESPONSE_NAMESPACE, key)
        self._response_outcomes[entry is not None].inc()
        return entry

    def store_response(self, key: str, entry: ResponseEntry) -> None:
        self.backend.put(RESPONSE_NAMESPACE, key, entry)

    # -- maintenance -----------------------------------------------------------------

    def close(self) -> None:
        self.backend.close()
