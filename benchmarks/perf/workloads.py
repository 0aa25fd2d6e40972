"""The four workloads of the request-spine benchmark.

Every workload is a closed loop with one client: the next request is sent
only after the previous one was answered with response bytes (an *op*).
Work is cut into *passes* of identical structure so the repo's
``MeasurementProtocol`` can report a median and a coefficient of variation
over them; ``--seconds`` scales the number of passes (``FULL_SECONDS``
corresponds to the sizes the benchmark was designed at), never the contents
of a pass, so two commits always run the same work.

Output checks run between passes, off the clock.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import re
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.api import (Program, ScheduleRequest, ScheduleResponse,
                       SearchConfig, Session, TuningDatabase, benchmark,
                       benchmark_names, programs_equivalent)
from repro.experiments.figure1 import LOOP_ORDERS, build_gemm_order
from repro.serving import (ServiceRunner, ServingClient, ServingError,
                           ServingServer)
from repro.workloads.registry import fuzz_program

from perf.calibration import SEGMENT_S, calibrate, speed_between
from perf.trace import Recorder

#: One configuration everywhere, so the workloads differ only in traffic.
THREADS = 4
SEARCH = SearchConfig(population_size=8, epochs=1, generations_per_epoch=2)

#: ``--seconds`` at which ``Workload.full_passes`` passes run.
FULL_SECONDS = 20.0

#: ``--smoke`` shrinks the program sets (and runs one pass) so the whole
#: harness finishes in seconds; smoke numbers are never comparable.
SMOKE_BENCHMARKS = ("gemm", "atax", "jacobi-2d")
FUZZ_PROGRAMS = 24
SMOKE_FUZZ_PROGRAMS = 3


def make_session(**options: Any) -> Session:
    return Session(threads=THREADS, search=SEARCH, **options)


# -- inputs -------------------------------------------------------------------------


@dataclass
class Input:
    """One distinct request of a workload.

    ``build`` returns the program *as written* (a fresh IR each call); it is
    what the interpreter check compares the scheduled program against.
    Named inputs are requested by registry name, the others carry their IR.
    """

    label: str
    build: Callable[[], Program]
    parameters: Dict[str, int]
    named: bool = True
    #: Interpreter-sized bindings for the output check (None: not checked
    #: by interpretation).
    mini: Optional[Dict[str, int]] = None

    def request(self) -> ScheduleRequest:
        if self.named:
            return ScheduleRequest(program=self.label)
        return ScheduleRequest(program=self.build(),
                               parameters=dict(self.parameters))


def registry_input(name: str, variant: str) -> Input:
    spec = benchmark(name)
    return Input(f"{name}:{variant}", lambda: spec.variant(variant),
                 spec.sizes("large"), mini=spec.sizes("mini"))


def gemm_order_input(order: str) -> Input:
    spec = benchmark("gemm")
    return Input(f"gemm_{order}", lambda: build_gemm_order(order),
                 spec.sizes("large"), named=False, mini=spec.sizes("mini"))


def fuzz_input(index: int) -> Input:
    key = f"small-{index}"
    return Input(f"fuzz:{key}", lambda: fuzz_program(key)[0],
                 fuzz_program(key)[1])


def registry_inputs(smoke: bool, variants: Sequence[str]) -> List[Input]:
    """Per benchmark, the variants in the given order (``a`` first, so
    cache-hit attribution does not depend on arrival luck)."""
    names = SMOKE_BENCHMARKS if smoke else benchmark_names()
    return [registry_input(name, variant)
            for name in names for variant in variants]


# -- records --------------------------------------------------------------------------


@dataclass
class PassRecord:
    """What one timed pass produced.

    Times are as measured; ``speeds`` holds, per op, the machine-speed
    factor of the stretch it ran in (see :mod:`perf.calibration`), and the
    ``scaled_*`` views multiply it in.
    """

    #: Wall and CPU seconds of the op loop, calibrations excluded.
    wall_s: float
    cpu_s: float
    scaled_wall_s: float
    latencies: List[float]
    speeds: List[float]
    #: What each op was asked (parallel to ``samples``).
    items: List[Any]
    #: Per-op output kept for the output check, or the exception it raised.
    samples: List[Any]
    #: Cache level -> (hits, misses) of the serving session during the pass.
    cache: Dict[str, Tuple[int, int]]
    traced: bool = False
    #: Service counters / per-request queue waits, where a service ran.
    service: Dict[str, float] = field(default_factory=dict)
    queue_waits: List[float] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def speed(self) -> float:
        return self.scaled_wall_s / self.wall_s

    @property
    def scaled_latencies(self) -> List[float]:
        return [latency * speed
                for latency, speed in zip(self.latencies, self.speeds)]


def _cache_counts(session: Session) -> Dict[str, Tuple[int, int]]:
    report = session.report()
    return {
        "normalization": (report.normalization_hits,
                          report.normalization_misses),
        "schedule": (report.schedule_cache_hits, report.schedule_cache_misses),
        "response": (report.response_cache_hits, report.response_cache_misses),
    }


def run_ops(items: Sequence[Any], op: Callable[[Any, Recorder], Any],
            rec: Recorder, session: Session) -> PassRecord:
    """The closed loop: one op after the other, each timed on its own.

    The loop is cut into stretches of at most ``SEGMENT_S``; a calibration
    before and after each stretch (off the clock) gives its speed factor.
    """
    before = _cache_counts(session)
    latencies: List[float] = []
    speeds: List[float] = []
    samples: List[Any] = []
    wall = cpu = scaled_wall = 0.0
    calibrated = calibrate()
    cpu_started = time.process_time()
    stretch_started = time.perf_counter()
    last = len(items) - 1
    for number, item in enumerate(items):
        started = time.perf_counter()
        try:
            with rec.span("op", op_id=number):
                sample = op(item, rec)
        except Exception as error:  # noqa: BLE001 - a failed op is a result
            sample = error
        ended = time.perf_counter()
        latencies.append(ended - started)
        samples.append(sample)
        if ended - stretch_started >= SEGMENT_S or number == last:
            cpu += time.process_time() - cpu_started
            previous, calibrated = calibrated, calibrate()
            speed = speed_between(previous, calibrated)
            speeds.extend([speed] * (len(latencies) - len(speeds)))
            wall += ended - stretch_started
            scaled_wall += (ended - stretch_started) * speed
            cpu_started = time.process_time()
            stretch_started = time.perf_counter()
    after = _cache_counts(session)
    cache = {level: (after[level][0] - before[level][0],
                     after[level][1] - before[level][1]) for level in after}
    return PassRecord(wall, cpu, scaled_wall, latencies, speeds, list(items),
                      samples, cache, traced=rec.enabled)


# -- exact quantities -----------------------------------------------------------------

_EVALS = re.compile(r"evolutionary search \((\d+) evals\)")


def recipe_digest(inputs: Sequence[Input],
                  responses: Dict[str, ScheduleResponse]) -> str:
    """sha256 over every ``(program, nest_index, recipe)`` chosen."""
    rows = []
    for inp in inputs:
        for info in responses[inp.label].result.nests:
            rows.append([inp.label, info.nest_index,
                         info.recipe.to_dict()
                         if info.recipe is not None else None])
    text = json.dumps(rows, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def exact_quantities(inputs: Sequence[Input],
                     responses: Dict[str, ScheduleResponse]
                     ) -> Dict[str, Any]:
    """Deterministic quantities of a workload, from the first response to
    each distinct input.  They must not move under a pure speed change."""
    baseline = Session(threads=THREADS)
    try:
        ratios = [baseline.estimate(inp.build(), inp.parameters,
                                    scheduler="clang")
                  / responses[inp.label].runtime_s for inp in inputs]
    finally:
        baseline.close()
    variants = [inp for inp in inputs if not inp.label.endswith(":a")
                and not inp.label.startswith("fuzz:")]
    served = sum(1 for inp in variants if responses[inp.label].from_cache)
    transfers = searches = attempts = evaluated = 0
    for inp in inputs:
        for info in responses[inp.label].result.nests:
            if info.detail == "blas idiom":
                continue
            attempts += 1
            if info.detail.startswith("transfer from"):
                transfers += 1
            match = _EVALS.match(info.detail)
            if match:
                searches += 1
                evaluated += int(match.group(1))
    return {
        "modeled_speedup_geomean": math.exp(
            sum(math.log(ratio) for ratio in ratios) / len(ratios)),
        "canonical_hit_share": served / len(variants) if variants else 0.0,
        "recipe_digest": recipe_digest(inputs, responses),
        "normalization.canonical_forms": len(
            {responses[inp.label].canonical_hash for inp in inputs}),
        "scheduler.candidates_evaluated": evaluated,
        "scheduler.search_nests": searches,
        "scheduler.transfer_applied_share": (transfers / attempts
                                             if attempts else 0.0),
    }


# -- workloads ------------------------------------------------------------------------


class Workload:
    """Common protocol: ``setup`` → ``run_pass``/``check_pass`` per pass →
    ``exact`` → ``close``."""

    name = ""
    #: Passes at ``FULL_SECONDS``.
    full_passes = 1
    #: Whether every pass does the same work (so the rate is the median over
    #: passes) or the run has a cold start that belongs to the result.
    uniform_passes = True

    def __init__(self, seed: int = 0, smoke: bool = False,
                 traced: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.traced = traced
        self.inputs: List[Input] = []
        #: The inputs whose cold path the traced run replays stage by stage
        #: (default: all of them).
        self.replay_inputs: Optional[List[Input]] = None
        #: Label -> the first response to that input (feeds ``exact``).
        self.first: Dict[str, ScheduleResponse] = {}
        #: The tuning database requests are scheduled against.
        self.database = TuningDatabase()

    def passes(self, seconds: float) -> int:
        if self.smoke:
            return 1
        return max(1, round(self.full_passes * seconds / FULL_SECONDS))

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int, rec: Recorder) -> PassRecord:
        raise NotImplementedError

    def check_pass(self, index: int, record: PassRecord) -> int:
        """Output check of one pass; returns the number of failed ops."""
        raise NotImplementedError

    def steady(self, index: int, passes: int) -> bool:
        """Whether pass ``index`` of ``passes`` runs at the steady rate (and
        so enters the pass-to-pass coefficient of variation)."""
        return True

    def exact(self) -> Dict[str, Any]:
        return exact_quantities(self.inputs, self.first)

    def close(self) -> None:
        pass


class _CompileWorkload(Workload):
    """In-process ``Session.schedule`` + full JSON encode, fresh session per
    pass (empty caches), fixed request order."""

    def run_pass(self, index: int, rec: Recorder) -> PassRecord:
        session = make_session(database=self.database)
        # Fresh IR for inputs that carry their program: a reused tree would
        # arrive with its content hash already memoized.
        requests = [inp.request() for inp in self.inputs]

        def op(request: ScheduleRequest, rec: Recorder) -> ScheduleResponse:
            with rec.span("api.session.schedule"):
                response = session.schedule(request)
            with rec.span("api.encode"):
                json.dumps(response.to_dict())
            return response

        try:
            return run_ops(requests, op, rec, session)
        finally:
            session.close()

    def check_pass(self, index: int, record: PassRecord) -> int:
        errors = [sample for sample in record.samples
                  if isinstance(sample, Exception)]
        if errors and index == 0:
            raise errors[0]  # no reference pass: nothing can be checked
        if errors:
            record.samples = []
            return len(errors)
        responses = {inp.label: sample
                     for inp, sample in zip(self.inputs, record.samples)}
        record.samples = []
        if index > 0:
            # Later passes repeat pass 0 (deterministic search): identical
            # recipes mean identical programs, already interpreted below.
            same = (recipe_digest(self.inputs, responses)
                    == recipe_digest(self.inputs, self.first))
            return 0 if same else record.ops
        self.first = responses
        # The reference interpreter runs the *input as written* against the
        # scheduled program; the scheduler's own output is never the oracle.
        return sum(1 for inp in self.inputs
                   if not programs_equivalent(inp.build(),
                                              responses[inp.label].program,
                                              inp.mini))


class ColdSearch(_CompileWorkload):
    name = "cold_search"
    # A pass has only 18 ops, so its percentiles rest on few samples: more
    # passes than the other workloads' run length would give.
    full_passes = 12

    def setup(self) -> None:
        self.inputs = registry_inputs(self.smoke, ("a",))


class VariantTransfer(_CompileWorkload):
    name = "variant_transfer"
    full_passes = 30

    def setup(self) -> None:
        seeder = make_session(database=self.database)
        try:
            seeder.seed(SMOKE_BENCHMARKS if self.smoke else benchmark_names())
        finally:
            seeder.close()
        self.inputs = (registry_inputs(self.smoke, ("a", "b", "npbench"))
                       + [gemm_order_input(order) for order in LOOP_ORDERS])


_DECODER = json.JSONDecoder()
_ECHO_KEY = '"request": '
_TRACE_ID = re.compile(r', "trace_id": "[^"]*"\}$')


def split_response(text: str) -> Tuple[str, Dict[str, Any], str]:
    """``(before, echo, after)`` of a response's JSON text, with the
    per-request parts (trace context, trace id) removed."""
    start = text.index(_ECHO_KEY) + len(_ECHO_KEY)
    echo, end = _DECODER.raw_decode(text, start)
    echo.pop("trace", None)
    return text[:start], echo, _TRACE_ID.sub("}", text[end:])


def response_text(response: Any) -> str:
    """The bytes a server would reply with (as the HTTP handler does it)."""
    encode = getattr(response, "to_json", None)
    return encode() if encode is not None else json.dumps(response.to_dict())


class _WarmedService(Workload):
    """Shared setup of the two serving workloads: one session, every
    registry ``:a``/``:b`` scheduled twice through the service — the first
    wave schedules, the second is cache-served and feeds the fast lane."""

    def _warm(self, runner: ServiceRunner) -> None:
        self.requests = [inp.request() for inp in self.warm_inputs]
        for inp, request in zip(self.warm_inputs, self.requests):
            self.first[inp.label] = runner.schedule(request)
        # Slow-lane responses: the reference the fast lane must reproduce.
        self.expected = [split_response(response_text(runner.schedule(request)))
                         for request in self.requests]

    def _run_served(self, runner: ServiceRunner, items: Sequence[Any],
                    op: Callable[[Any, Recorder], Any],
                    rec: Recorder) -> PassRecord:
        """``run_ops`` plus what the service counted meanwhile."""
        before = runner.stats.to_dict()
        record = run_ops(items, op, rec, self.session)
        after = runner.stats.to_dict()
        record.service = {key: after[key] - before[key] for key in after}
        return record


class WarmFastlane(_WarmedService):
    name = "warm_fastlane"
    full_passes = 20
    pass_ops = 5000

    def setup(self) -> None:
        self.inputs = self.warm_inputs = registry_inputs(self.smoke,
                                                         ("a", "b"))
        # No timed op is cold here; a few replays show what filling the
        # cache cost without repeating cold_search.
        self.replay_inputs = self.inputs[:6]
        self.session = make_session()
        self.database = self.session.database
        self.runner = ServiceRunner(self.session)
        self.runner.start()
        self._warm(self.runner)
        self.ops = 500 if self.smoke else self.pass_ops

    def run_pass(self, index: int, rec: Recorder) -> PassRecord:
        rng = random.Random(f"{self.seed}:{index}")
        order: List[int] = []
        while len(order) < self.ops:
            block = list(range(len(self.requests)))
            rng.shuffle(block)
            order.extend(block)
        del order[self.ops:]
        runner, requests = self.runner, self.requests
        waits: List[float] = []

        def op(position: int, rec: Recorder) -> str:
            if rec.enabled:
                with rec.span("serving.runner.schedule"):
                    response, timing = runner.schedule_timed(
                        requests[position])
                waits.append(timing.queue_wait_s)
            else:
                response = runner.schedule(requests[position])
            return response_text(response)

        record = self._run_served(runner, order, op, rec)
        record.queue_waits = waits
        return record

    def check_pass(self, index: int, record: PassRecord) -> int:
        failed = 0
        for position, sample in zip(record.items, record.samples):
            if isinstance(sample, Exception) \
                    or split_response(sample) != self.expected[position]:
                failed += 1
        record.samples = []
        return failed

    def close(self) -> None:
        self.runner.stop()
        self.session.close()


class HttpMixed(_WarmedService):
    name = "http_mixed"
    full_passes = 20
    pass_ops = 400
    uniform_passes = False

    def setup(self) -> None:
        self.warm_inputs = registry_inputs(self.smoke, ("a", "b"))
        fuzz = SMOKE_FUZZ_PROGRAMS if self.smoke else FUZZ_PROGRAMS
        self.fuzz_inputs = [fuzz_input(index) for index in range(fuzz)]
        self.inputs = self.warm_inputs + self.fuzz_inputs
        # The fuzz programs are this workload's cold ops.
        self.replay_inputs = self.fuzz_inputs
        self.session = make_session()
        self.database = self.session.database
        # The access log is the only outside view of per-request queue
        # waits behind HTTP; it is switched on for traced runs only.
        self.log = io.StringIO() if self.traced else None
        self.server = ServingServer(self.session, access_log=self.log)
        self.server.start()
        self._warm(self.server.runner)
        self.client = ServingClient(self.server.address)
        self.ops = 60 if self.smoke else self.pass_ops
        self.rng = random.Random(self.seed)
        self.warm_labels = [inp.label for inp in self.warm_inputs]
        self.fuzz_labels = [inp.label for inp in self.fuzz_inputs]
        #: Zipf(1): the k-th fuzz program is drawn with weight 1/k.
        self.zipf = [1.0 / rank for rank in range(1, fuzz + 1)]
        self.reference: Optional[Dict[str, Tuple[str, float]]] = None

    def steady(self, index: int, passes: int) -> bool:
        # First occurrences of the fuzz programs arrive cold early in the
        # stream; only the second half runs at a steady rate.
        return index >= passes // 2

    def run_pass(self, index: int, rec: Recorder) -> PassRecord:
        rng = self.rng
        labels = [rng.choice(self.warm_labels) if rng.random() < 0.5
                  else rng.choices(self.fuzz_labels, self.zipf)[0]
                  for _ in range(self.ops)]
        client = self.client

        def op(label: str, rec: Recorder) -> Tuple[str, float]:
            request = ScheduleRequest(program=label)
            if rec.enabled:
                with rec.span("serving.client.request"):
                    status, payload = client.request(
                        "POST", "/v1/schedule", request.to_dict())
                if status != 200:
                    raise ServingError(status, payload)
                with rec.span("api.decode"):
                    response = ScheduleResponse.from_dict(payload)
            else:
                response = client.schedule(request)
            return response.canonical_hash, response.runtime_s

        logged = self.log.tell() if self.log is not None else 0
        record = self._run_served(self.server.runner, labels, op, rec)
        if self.log is not None:
            self.log.seek(logged)
            record.queue_waits = [
                entry["queue_wait_s"]
                for entry in map(json.loads, self.log.read().splitlines())
                if entry.get("queue_wait_s") is not None]
        return record

    def _reference_answers(self) -> Dict[str, Tuple[str, float]]:
        """Every distinct request through a plain single-threaded Session
        that shares nothing with the served one."""
        session = make_session()
        try:
            answers = {}
            for inp in self.inputs:
                response = session.schedule(inp.request())
                # Also the "first response" the exact quantities read: it
                # covers the fuzz programs whatever the stream drew.
                self.first[inp.label] = response
                answers[inp.label] = (response.canonical_hash,
                                      response.runtime_s)
            return answers
        finally:
            session.close()

    def check_pass(self, index: int, record: PassRecord) -> int:
        if self.reference is None:
            self.reference = self._reference_answers()
        failed = sum(1 for label, sample in zip(record.items, record.samples)
                     if sample != self.reference[label])
        record.samples = []
        return failed

    def close(self) -> None:
        self.server.stop()
        self.session.close()


WORKLOADS = {cls.name: cls for cls in (ColdSearch, VariantTransfer,
                                       WarmFastlane, HttpMixed)}
