"""The :class:`Session` facade — the one blessed entry point of the repo.

A session owns the four shared resources of the frontend → normalize →
schedule → measure pipeline:

* a machine model and thread count,
* a content-addressed :class:`~repro.api.cache.NormalizationCache`,
* one transfer-tuning :class:`~repro.scheduler.database.TuningDatabase`,
* lazily-created scheduler instances resolved through the plugin registry.

Typical use::

    from repro.api import Session

    session = Session(threads=12)
    session.tune("gemm:a")                      # seed the database
    response = session.schedule("gemm:b")       # served via transfer tuning
    print(response.summary(), session.report().summary())

Many workloads are scheduled by a loop over ``schedule``; the serving
layer's batcher thread schedules each queued request the same way.
"""

from __future__ import annotations

import contextlib
import json
import threading
from typing import (TYPE_CHECKING, Any, Dict, Iterable, List, Mapping,
                    Optional, Tuple, Union)

from ..interp.executor import programs_equivalent, run_program
from ..ir.nodes import Program
from ..ir.validation import validate_bindings, validate_program
from ..normalization.pipeline import NormalizationOptions
from ..observability import CounterView, MetricsRegistry, Tracer
from ..observability.tracing import NULL_SPAN, span as trace_span
from ..perf.cache import CacheHierarchy, CacheReport
from ..perf.machine import DEFAULT_MACHINE, MachineModel
from ..perf.model import CostModel
from ..perf.trace import TraceGenerator
from ..scheduler.base import Scheduler
from ..scheduler.database import TuningDatabase
from ..scheduler.evolutionary import SearchConfig
from ..scheduler.tiramisu import MctsConfig
from ..workloads import registry as workload_registry
from .backends import CacheBackend, SQLiteCacheBackend
from .cache import NormalizationCache, ResponseEntry
from .hashing import fingerprint, program_content_hash, request_fingerprint
from .registry import (FRONTENDS, SCHEDULERS, RegistryError, create_scheduler,
                       scheduler_normalizes, scheduler_tunes)
from .types import (ExecuteResponse, NormalizeResponse, ProgramLike,
                    ScheduleRequest, ScheduleResponse, SessionReport,
                    echo_span)

if TYPE_CHECKING:  # pragma: no cover - import only needed for annotations
    import numpy as np

class Session:
    """One configured pipeline instance; thread-safe, so serving threads
    and direct callers may share one."""

    def __init__(self,
                 machine: Optional[MachineModel] = None,
                 threads: int = 1,
                 pipeline: Optional[str] = None,
                 scheduler: str = "daisy",
                 search: Optional[SearchConfig] = None,
                 mcts: Optional[MctsConfig] = None,
                 size: str = "large",
                 database: Optional[TuningDatabase] = None,
                 cache_backend: Optional[CacheBackend] = None,
                 cache_path: Optional[str] = None,
                 tracer: Optional[Tracer] = None):
        if scheduler not in SCHEDULERS:
            raise RegistryError(
                f"unknown scheduler {scheduler!r}; registered: {SCHEDULERS.names()}")
        self.machine = machine or DEFAULT_MACHINE
        self.threads = threads
        # The registered normalization pipeline ("a-priori" when None).
        # Checked eagerly, like the scheduler name above: a typo must fail
        # at construction, not on the first request of a booted server.
        self.normalization = NormalizationOptions(pipeline or "a-priori")
        self.default_scheduler = scheduler
        self.search = search
        self.mcts = mcts
        self.size = size
        self.database = database if database is not None else TuningDatabase()
        # The session owns (and may close) the cache backend only when it
        # built it; an injected ``cache_backend`` may be shared elsewhere.
        self._owns_cache = cache_backend is None
        # One metrics registry per session: cache, service, and session
        # instruments all land here.
        self.metrics = MetricsRegistry()
        # ``cache_path`` is shorthand for a persistent SQLite backend; an
        # explicit ``cache_backend`` wins over it.
        if cache_backend is None and cache_path is not None:
            cache_backend = SQLiteCacheBackend(cache_path)
        self.cache = NormalizationCache(backend=cache_backend,
                                        metrics=self.metrics)
        # One tracer per session; serving layers share it so
        # request spans from every layer land in the same ring buffer.
        self.tracer = tracer if tracer is not None else Tracer()
        calls = self.metrics.counter(
            "repro_session_calls_total",
            "Session entry-point calls by kind.", ("kind",))
        #: What this session did since it was built, read off the registry
        #: series ``/metrics`` scrapes (:meth:`report` renders it).
        self._counts = CounterView({
            f"{kind}_calls": calls.labels(kind)
            for kind in ("schedule", "tune", "execute")})

        self._lock = threading.RLock()
        self._schedulers: Dict[Tuple[str, int], Scheduler] = {}
        self._cost_models: Dict[int, CostModel] = {}
        # Frozen masters of named-workload resolutions; _resolve() hands out
        # copy-on-write snapshots instead of rebuilding the IR per request.
        self._resolved: Dict[str, Tuple[Program, Optional[Dict[str, int]]]] = {}
        # Session half of the response-cache key.  Request fingerprints
        # exclude session defaults, but sessions with different
        # configurations may share one persistent cache file; the salt keys
        # entries by everything the session itself contributes to a response.
        # The normalization entry keeps the shape the options once had (a
        # pipeline and its sizes), so persisted keys stay valid.  A machine
        # or search budget the caller chose keys the salt and the schedule
        # level too; one left at None adds nothing, so default sessions
        # keep their keys.
        chosen = {name: value for name, value in
                  (("machine", machine), ("search", search), ("mcts", mcts))
                  if value is not None}
        self._settings_key = f"|{fingerprint(chosen)}" if chosen else ""
        salt: Dict[str, Any] = {
            "scheduler": self.default_scheduler,
            "threads": self.threads,
            "size": self.size,
            "normalization": {"pipeline": self.normalization.pipeline,
                              "parameters": None},
        }
        if chosen:
            salt["settings"] = chosen
        self._response_salt = fingerprint(salt)

    # -- loading ---------------------------------------------------------------------

    def load(self, source: ProgramLike, *, variant: Optional[str] = None,
             frontend: Optional[str] = None, name: Optional[str] = None) -> Program:
        """Resolve anything program-like into an IR :class:`Program`.

        Accepts an IR program (returned unchanged), a workload-registry name
        (``"gemm"``, ``"gemm:b"``, ``"cloudsc"``, ``"erosion"``), or source
        text for a registered frontend (default: the C-like language).
        """
        return self._resolve(source, variant=variant, frontend=frontend,
                             name=name)[0]

    def _resolve(self, source: ProgramLike, *, variant: Optional[str] = None,
                 frontend: Optional[str] = None, name: Optional[str] = None
                 ) -> Tuple[Program, Optional[Dict[str, int]]]:
        """Resolve ``source``; also return the registry's default parameters
        when known (its own dict).  Checks the structure of an IR program or
        parsed text per call, and of a registry master once, when built."""
        if isinstance(source, Program):
            validate_program(source)
            return source, None
        if not isinstance(source, str):
            raise TypeError(f"cannot load {type(source).__name__}; "
                            "expected Program, workload name, or source text")

        text = source.strip()
        # Named workloads resolve deterministically (registry builders and
        # pinned fuzz programs are pure), so the session keeps one frozen
        # master per name and serves copy-on-write snapshots — repeat
        # requests skip the IR rebuild entirely.
        cache_key = f"{text}|{variant or ''}"
        with self._lock:
            cached = self._resolved.get(cache_key)
        if cached is None:
            workload, _, suffix = text.partition(":")
            if workload == "cloudsc":
                from ..workloads.cloudsc import build_cloudsc_model
                cached = build_cloudsc_model(), None
            elif workload == "erosion":
                from ..workloads.cloudsc import build_erosion_kernel
                cached = build_erosion_kernel(), None
            elif workload == "fuzz":
                cached = workload_registry.fuzz_program(suffix)
            elif workload in workload_registry.benchmark_names():
                spec = workload_registry.benchmark(workload)
                cached = (spec.variant(suffix or variant or "a"),
                          dict(spec.sizes(self.size)))
            if cached is not None:
                validate_program(cached[0])
                cached[0].freeze()
                with self._lock:
                    self._resolved[cache_key] = cached
        if cached is not None:
            master, parameters = cached
            return master.snapshot(), parameters

        if frontend is None and ("\n" in source or "{" in source or "=" in source):
            frontend = "clike"
        if frontend is not None:
            parse = FRONTENDS.get(frontend)
            program = parse(source, name or f"{frontend}_program")
            validate_program(program)
            return program, None
        raise RegistryError(
            f"{source!r} is neither a known workload "
            f"({workload_registry.benchmark_names()}) nor parseable source text")

    def _validated(self, source: ProgramLike,
                   parameters: Optional[Mapping[str, int]]
                   ) -> Tuple[Program, Dict[str, int]]:
        """The request boundary: ``source`` resolved and checked, with
        ``parameters`` (default: the registry's sizes) that must bind it,
        or a :class:`~repro.ir.validation.ValidationError` (a ValueError)."""
        program, defaults = self._resolve(source)
        parameters = dict(parameters if parameters is not None
                          else defaults or {})
        validate_bindings(program, parameters)
        return program, parameters

    # -- schedulers -------------------------------------------------------------------

    def scheduler(self, name: Optional[str] = None,
                  threads: Optional[int] = None) -> Scheduler:
        """The (lazily created, cached) scheduler instance for ``name``."""
        name = name or self.default_scheduler
        threads = self.threads if threads is None else threads
        key = (name, threads)
        with self._lock:
            instance = self._schedulers.get(key)
            if instance is None:
                options: Dict[str, Any] = {"search": self.search, "mcts": self.mcts}
                # Every scheduler whose registration says it tunes works
                # against the session database (registry metadata, not a
                # hard-coded name, so third-party schedulers join in).
                if scheduler_tunes(name):
                    options["database"] = self.database
                instance = create_scheduler(name, machine=self.machine,
                                            threads=threads, **options)
                self._schedulers[key] = instance
            return instance

    def _cost_model(self, threads: Optional[int] = None) -> CostModel:
        threads = self.threads if threads is None else threads
        with self._lock:
            model = self._cost_models.get(threads)
            if model is None:
                model = CostModel(self.machine, threads)
                self._cost_models[threads] = model
            return model

    # -- normalization ----------------------------------------------------------------

    def normalize(self, source: ProgramLike,
                  pipeline: Optional[str] = None) -> NormalizeResponse:
        """Run a-priori normalization through the content-addressed cache.

        ``pipeline`` selects a registered pipeline by name for this call;
        without it, the session's pipeline applies.
        """
        if pipeline is not None:
            NormalizationOptions(pipeline)  # a typo fails before loading
        return self._normalize(self.load(source), pipeline)

    def _normalize(self, program: Program,
                   pipeline: Optional[str]) -> NormalizeResponse:
        """:meth:`normalize` of a program already resolved and checked."""
        options = (self.normalization if pipeline is None
                   else NormalizationOptions(pipeline))
        entry = self.cache.normalized(program, options)
        # Cache keys are name-insensitive: a hit may carry the program name
        # of whoever populated the entry.  Serve under the caller's name,
        # like the schedule-cache-hit path does.
        entry.program.name = program.name
        return NormalizeResponse(program=entry.program, report=entry.report,
                                 input_hash=entry.input_hash,
                                 canonical_hash=entry.canonical_hash,
                                 cache_hit=entry.hit)

    # -- scheduling -------------------------------------------------------------------

    def schedule(self, request: Union[ScheduleRequest, ProgramLike],
                 parameters: Optional[Mapping[str, int]] = None,
                 scheduler: Optional[str] = None, *,
                 threads: Optional[int] = None,
                 label: Optional[str] = None,
                 normalize: Optional[bool] = None,
                 tune: bool = False,
                 pipeline: Optional[str] = None) -> ScheduleResponse:
        """Schedule one program; cached at both the normalization and the
        schedule level.  Returns a :class:`ScheduleResponse`."""
        if not isinstance(request, ScheduleRequest):
            request = ScheduleRequest(program=request, parameters=parameters,
                                      scheduler=scheduler, threads=threads,
                                      label=label, normalize=normalize, tune=tune,
                                      pipeline=pipeline)
        name = request.scheduler or self.default_scheduler
        with contextlib.ExitStack() as stack:
            span = NULL_SPAN
            trace_id = None
            if request.trace and self.tracer.enabled:
                # A serving layer propagated a trace context (from the
                # request's thread to its batcher's): re-activate it so
                # pass/cache/search spans recorded below parent under the
                # service's span for this request.
                stack.enter_context(self.tracer.activate(request.trace))
                span = stack.enter_context(
                    trace_span("session.schedule", scheduler=name))
                trace_id = request.trace.get("trace_id")

            program, parameters = self._validated(request.program,
                                                  request.parameters)
            instance = self.scheduler(name, request.threads)
            normalizes = (scheduler_normalizes(name) if request.normalize is None
                          else request.normalize)
            if request.pipeline is not None and not normalizes:
                # A pipeline on a request that skips normalization would be
                # silently inert (and spoil coalescing fingerprints).
                raise ValueError(
                    f"request selects pipeline {request.pipeline!r} but "
                    f"normalization is disabled for it "
                    f"(scheduler {name!r}, normalize={request.normalize})")
            if request.tune and not scheduler_tunes(name):
                raise RegistryError(
                    f"scheduler {name!r} does not support tuning (no database)")

            self._counts.inc("tune_calls" if request.tune
                             else "schedule_calls")

            input_hash = canonical_hash = None
            norm_hit = from_cache = False
            if normalizes:
                normalization = self._normalize(program, request.pipeline)
                target = normalization.program
                input_hash = normalization.input_hash
                canonical_hash = normalization.canonical_hash
                norm_hit = normalization.cache_hit
            elif request.tune:
                target = program.copy()
            else:
                target = program
                input_hash = program_content_hash(program)

            if request.tune:
                result = instance.tune(target, parameters,
                                       label=request.label or program.name)
            else:
                key = self.cache.schedule_key(
                    canonical_hash if normalizes else input_hash, name,
                    instance.threads, parameters,
                    database_version=self._database_version(instance)
                ) + self._settings_key
                cached = self.cache.lookup_schedule(key)
                if cached is not None:
                    result, runtime = cached
                    from_cache = True
                    # The cached schedule came from a normalized-equivalent
                    # program; keep the caller's program name on the served
                    # copy.
                    result.program.name = program.name
                else:
                    with trace_span("scheduler.search", scheduler=name,
                                    threads=instance.threads):
                        result = instance.schedule(target, parameters)
            if not from_cache:
                runtime = result.runtime_s
                if runtime is None:  # a scheduler that walks its own way
                    runtime = instance.price(result.program, parameters)
                if not request.tune:
                    self.cache.store_schedule(key, result, runtime)

            span.set_attributes(from_cache=from_cache,
                                normalization_cache_hit=norm_hit)
            return ScheduleResponse(
                request=request, scheduler=name, program=result.program,
                result=result, runtime_s=runtime, normalized=normalizes,
                input_hash=input_hash, canonical_hash=canonical_hash,
                from_cache=from_cache, normalization_cache_hit=norm_hit,
                trace_id=trace_id)

    def tune(self, source: Union[ScheduleRequest, ProgramLike],
             parameters: Optional[Mapping[str, int]] = None,
             label: Optional[str] = None,
             scheduler: Optional[str] = None) -> ScheduleResponse:
        """Tune a program and record its recipes in the session database."""
        return self.schedule(source, parameters, scheduler, label=label, tune=True)

    def seed(self, workloads: Iterable[ProgramLike],
             variant: str = "a") -> List[ScheduleResponse]:
        """Seed the database from the (normalized) ``variant`` of each workload."""
        responses = []
        for workload in workloads:
            if isinstance(workload, str) and ":" not in workload:
                label = workload
                workload = f"{workload}:{variant}"
            else:
                label = None
            responses.append(self.tune(workload, label=label))
        return responses

    def estimate(self, source: Union[ScheduleRequest, ProgramLike],
                 parameters: Optional[Mapping[str, int]] = None,
                 scheduler: Optional[str] = None, *,
                 threads: Optional[int] = None,
                 normalize: Optional[bool] = None) -> float:
        """Schedule and return the modeled runtime in seconds."""
        return self.schedule(source, parameters, scheduler, threads=threads,
                             normalize=normalize).runtime_s

    @staticmethod
    def _database_version(instance: Scheduler) -> Any:
        """Cache-key component of a database-backed scheduler (else None).

        A tune() in between grows the database, and a schedule (or response)
        cached before it must not shadow the transfer-tuned schedule
        available after.  The version is content-derived (not the entry
        count): with a persistent cache, two different databases of equal
        size must not share cached entries.
        """
        database = getattr(instance, "database", None)
        return None if database is None else database.version

    # -- response fast lane -------------------------------------------------------------
    #
    # The response cache is a serving-side level *around* schedule(): a
    # serving layer reads it before admission and writes it after a schedule.

    def _response_key(self, request: ScheduleRequest,
                      key: Optional[str] = None) -> Optional[str]:
        """Response-cache key of ``request``, or ``None`` when the request
        can never be served from it (tune requests mutate the database, and
        an invalid request gets its real error from the slow path)."""
        if request.tune:
            return None
        try:
            # The live database version invalidates fast-lane entries the
            # moment tuning grows the database, exactly like the
            # schedule-level key.
            version = self._database_version(self.scheduler(
                request.scheduler or self.default_scheduler, request.threads))
            return "|".join((key or request_fingerprint(request),
                             self._response_salt, str(version)))
        except (RegistryError, TypeError, ValueError):
            return None

    def lookup_response(self, request: ScheduleRequest,
                        key: Optional[str] = None
                        ) -> Optional[ScheduleResponse]:
        """Serve ``request`` from the response-level cache, if possible.

        A hit returns the final response JSON assembled from pre-encoded
        bytes — no session scheduling, no IR, no JSON parse: only the
        per-request echo is encoded fresh.  A hit is not traced: its
        response carries no trace id.  ``key`` is the
        ``request_fingerprint`` the serving layer already computed.
        Returns ``None`` on a miss.
        """
        key = self._response_key(request, key)
        entry = self.cache.lookup_response(key) if key is not None else None
        if entry is None:
            return None
        return ScheduleResponse.from_json(
            entry.before + json.dumps(request.to_dict()) + entry.after)

    def store_response(self, request: ScheduleRequest,
                       response: ScheduleResponse) -> None:
        """Store ``response``'s encoded bytes for the fast lane.

        Only fully cache-served responses are stored (``from_cache`` and
        ``normalization_cache_hit`` both set): those are exactly the
        responses a repeat of ``request`` through the slow path would
        reproduce byte for byte, so the fast lane can never serve bytes the
        session itself would not.  The stored parts are the response's own
        text split around its echo (a text :func:`echo_span` cannot place
        is not stored), without the trace id of the request that computed it.
        """
        if not (response.from_cache and response.normalization_cache_hit):
            return
        key = self._response_key(request)
        if key is None:
            return
        text = response.to_json()
        span = echo_span(text)
        if span is None:
            return
        start, end = span
        after = text[end:]
        cut = after.find(', "trace_id": ')
        if cut >= 0:                  # the tail's last key, when present
            after = after[:cut] + "}"
        self.cache.store_response(key, ResponseEntry(text[:start], after))

    def close(self) -> None:
        """Release the cache backend if this session created it (an injected
        ``cache_backend=`` may be shared with other sessions and stays open).
        Idempotent."""
        if self._owns_cache:
            self.cache.close()

    # -- measurement and execution ----------------------------------------------------

    def evaluate(self, source: ProgramLike,
                 parameters: Optional[Mapping[str, int]] = None, *,
                 threads: Optional[int] = None,
                 assume_warm_caches: bool = False) -> float:
        """Modeled runtime of a program *as given* (no scheduling)."""
        program, parameters = self._validated(source, parameters)
        return self._cost_model(threads).estimate_seconds(
            program, parameters, assume_warm_caches=assume_warm_caches)

    def cache_report(self, source: ProgramLike,
                     parameters: Mapping[str, int]) -> CacheReport:
        """Run the address trace of a program through the cache simulator."""
        program, parameters = self._validated(source, parameters)
        trace = TraceGenerator(program, parameters).trace()
        return CacheHierarchy(self.machine).run_trace(trace)

    def execute(self, source: ProgramLike,
                parameters: Optional[Mapping[str, int]] = None,
                inputs: Optional[Mapping[str, np.ndarray]] = None,
                seed: int = 0) -> ExecuteResponse:
        """Interpret a program on concrete (or reproducible random) inputs."""
        program, parameters = self._validated(source, parameters)
        self._counts.inc("execute_calls")
        outputs = run_program(program, parameters, inputs, seed)
        return ExecuteResponse(program=program, parameters=parameters,
                               outputs=dict(outputs))

    def equivalent(self, first: ProgramLike, second: ProgramLike,
                   parameters: Mapping[str, int], **kwargs: Any) -> bool:
        """Observational equivalence of two programs on random inputs."""
        return programs_equivalent(self.load(first), self.load(second),
                                   parameters, **kwargs)

    # -- introspection ----------------------------------------------------------------

    def report(self) -> SessionReport:
        """Counters: calls, cache hits/misses, backend traffic, database size,
        and per-pass normalization timings."""
        stats = self.cache.stats
        backend = self.cache.backend
        with self._lock:
            schedulers = sorted({name for name, _ in self._schedulers})
        return SessionReport(
            **self._counts.to_dict(),
            normalization_hits=stats.normalization_hits,
            normalization_misses=stats.normalization_misses,
            schedule_cache_hits=stats.schedule_hits,
            schedule_cache_misses=stats.schedule_misses,
            cache_evictions=backend.stats.evictions,
            database_entries=len(self.database),
            schedulers=schedulers,
            cache_backend=backend.name,
            cache_memory_hits=backend.stats.memory_hits,
            cache_disk_hits=backend.stats.disk_hits,
            cache_writes=backend.stats.writes,
            cache_busy_retries=backend.stats.busy_retries,
            response_cache_hits=stats.response_hits,
            response_cache_misses=stats.response_misses,
            database_version=self.database.version,
            normalization_passes=self.cache.pass_stats.to_dict(),
        )
