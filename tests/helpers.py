"""Shared helpers for the test suite: program builders, stdlib-only
property-test generators, and a Prometheus text-format parser.

These used to live in ``tests/conftest.py``, but test modules importing them
via ``from conftest import ...`` collided with ``benchmarks/conftest.py``
when pytest collected both directories.  A plain helper module has a unique
import name and works from any rootdir.
"""

import os
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor

# Allow running the tests without installing the package (e.g. straight from
# a source checkout) by putting ``src`` on the path.
_SRC = os.path.join(os.path.dirname(__file__), "..", "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, os.path.abspath(_SRC))

from repro.ir import (Array, ArrayAccess, Call, Const,  # noqa: E402
                      FloorDiv, ProgramBuilder, Read, Sym)
from repro.observability import MetricsRegistry, Tracer  # noqa: E402


#: The six pipelines the package registers, as ``pipeline_names()`` lists
#: them: the paper's Figure 5, its Section 4.2 ablations, and the CLOUDSC
#: variant that keeps source iterator names.
SHIPPED_PIPELINES = ["a-priori", "a-priori-keep-names", "identity",
                     "no-fission", "no-scalar-expansion", "no-stride"]


def build_gemm(order=("i", "j", "k"), name=None, with_scaling=True):
    """A GEMM program with a configurable loop order (helper for many tests)."""
    order = list(order)
    b = ProgramBuilder(name or f"gemm_{''.join(order)}", parameters=["NI", "NJ", "NK"])
    b.add_array("C", ("NI", "NJ"))
    b.add_array("A", ("NI", "NK"))
    b.add_array("B", ("NK", "NJ"))
    b.add_scalar("alpha")
    b.add_scalar("beta")
    if with_scaling:
        with b.loop("i", 0, "NI"):
            with b.loop("j", 0, "NJ"):
                b.assign(("C", "i", "j"), b.read("C", "i", "j") * b.read("beta"))
    bounds = {"i": "NI", "j": "NJ", "k": "NK"}
    with b.loop(order[0], 0, bounds[order[0]]):
        with b.loop(order[1], 0, bounds[order[1]]):
            with b.loop(order[2], 0, bounds[order[2]]):
                b.assign(("C", "i", "j"),
                         b.read("C", "i", "j")
                         + b.read("alpha") * b.read("A", "i", "k") * b.read("B", "k", "j"))
    return b.finish()


def build_vector_add(name="vecadd"):
    """z = x + y over one loop."""
    b = ProgramBuilder(name, parameters=["N"])
    b.add_array("x", ("N",))
    b.add_array("y", ("N",))
    b.add_array("z", ("N",))
    with b.loop("i", 0, "N"):
        b.assign(("z", "i"), b.read("x", "i") + b.read("y", "i"))
    return b.finish()


def build_stencil(name="stencil1d"):
    """Sequential-in-time 1-D stencil: carries a dependence on the time loop."""
    b = ProgramBuilder(name, parameters=["T", "N"])
    b.add_array("A", ("N",))
    b.add_array("B", ("N",))
    with b.loop("t", 0, "T"):
        with b.loop("i", 1, b.sym("N") - 1):
            b.assign(("B", "i"),
                     0.5 * (b.read("A", b.sym("i") - 1) + b.read("A", b.sym("i") + 1)))
        with b.loop("i", 1, b.sym("N") - 1):
            b.assign(("A", "i"), b.read("B", "i"))
    return b.finish()


# -- property-test generators (stdlib-only, Hypothesis-style) -------------------

def observation_streams(seed, count=40, max_length=400):
    """Yield ``count`` random observation streams for histogram properties.

    A deterministic, stdlib-only stand-in for Hypothesis: each stream draws
    its length, distribution shape (uniform, exponential-ish, clustered,
    constant, negative-heavy), and scale from a seeded ``random.Random``,
    so failures replay exactly from the seed.
    """
    import random

    rng = random.Random(seed)
    shapes = ("uniform", "exponential", "clustered", "constant", "negative")
    for index in range(count):
        length = rng.randint(1, max_length)
        shape = shapes[index % len(shapes)]
        scale = 10.0 ** rng.randint(-3, 3)
        if shape == "uniform":
            stream = [rng.uniform(0.0, scale) for _ in range(length)]
        elif shape == "exponential":
            stream = [rng.expovariate(1.0 / scale) for _ in range(length)]
        elif shape == "clustered":
            centers = [rng.uniform(0.0, scale) for _ in range(3)]
            stream = [rng.choice(centers) + rng.uniform(-scale, scale) * 0.01
                      for _ in range(length)]
        elif shape == "constant":
            value = rng.uniform(0.0, scale)
            stream = [value] * length
        else:  # negative-heavy: observations below every bucket bound
            stream = [rng.uniform(-scale, scale) for _ in range(length)]
        yield shape, stream


def uniform_buckets(stream, buckets=16):
    """Uniform bucket bounds covering ``stream`` (for quantile oracles).

    Returns ``(bounds, width)``: the last bound sits at the stream maximum,
    so nothing overflows into the +Inf bucket and histogram quantiles are
    within one ``width`` of the exact sorted-sample answer.
    """
    low, high = min(stream), max(stream)
    if high <= low:
        high = low + 1.0
    width = (high - low) / buckets
    # The last bound is pinned to the exact maximum: accumulated rounding in
    # ``low + width * buckets`` could land a hair below it, spilling the
    # largest observation into the +Inf bucket.
    bounds = tuple(low + width * (index + 1)
                   for index in range(buckets - 1)) + (high,)
    return bounds, width


# -- a minimal Prometheus text-format parser (for /metrics scrape tests) --------

def parse_prometheus_text(text):
    """Parse the Prometheus text exposition format into plain dicts.

    Returns ``{metric_name: {"type": str, "samples": {(sample_name,
    ((label, value), ...)): float}}}``; sample names keep their
    ``_bucket`` / ``_sum`` / ``_count`` suffixes and label pairs are sorted
    tuples, so tests can assert exact series values.
    """
    import re

    metrics = {}
    types = {}
    sample_re = re.compile(
        r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$")
    label_re = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(None, 3)
            types[name] = kind
            metrics.setdefault(name, {"type": kind, "samples": {}})
            continue
        if line.startswith("#"):
            continue
        match = sample_re.match(line)
        assert match, f"unparseable sample line: {line!r}"
        sample_name, label_body, value_text = match.groups()

        def unescape(value):
            # One regex pass: sequential str.replace would corrupt values
            # like a literal backslash followed by 'n' ('\\' then 'n').
            return re.sub(r"\\(.)",
                          lambda m: {"n": "\n"}.get(m.group(1), m.group(1)),
                          value)

        labels = []
        if label_body:
            labels = [(name, unescape(value))
                      for name, value in label_re.findall(label_body)]
        base = sample_name
        for suffix in ("_bucket", "_sum", "_count"):
            trimmed = sample_name[:-len(suffix)] \
                if sample_name.endswith(suffix) else None
            if trimmed and types.get(trimmed) == "histogram":
                base = trimmed
                break
        value = float("inf") if value_text == "+Inf" else float(value_text)
        entry = metrics.setdefault(
            base, {"type": types.get(base, "untyped"), "samples": {}})
        entry["samples"][(sample_name, tuple(sorted(labels)))] = value
    return metrics


def prometheus_sample(metrics, sample_name, **labels):
    """One sample value from :func:`parse_prometheus_text` output (the base
    metric is derived by stripping histogram suffixes)."""
    base = sample_name
    for suffix in ("_bucket", "_sum", "_count"):
        if base.endswith(suffix) and base[:-len(suffix)] in metrics:
            base = base[:-len(suffix)]
            break
    key = (sample_name, tuple(sorted(
        (name, str(value)) for name, value in labels.items())))
    return metrics[base]["samples"][key]


# -- reference derivations of memoized symbolic facts --------------------------


def spec_free_symbols(expr):
    """The symbols of an expression by a plain recursive walk, no memo."""
    if isinstance(expr, Sym):
        return frozenset({expr.name})
    found = frozenset()
    for child in expr.children():
        found |= spec_free_symbols(child)
    return found


def spec_split(expr, iterators):
    """A subscript split over ``iterators`` from its affine form, no memo."""
    from repro.analysis.affine import AffineIndex

    form = expr.as_affine()
    if form is None:
        return AffineIndex.non_affine()
    coefficients, constant = form
    return AffineIndex(
        tuple(sorted((name, float(coefficient))
                     for name, coefficient in coefficients.items()
                     if name in iterators)),
        tuple(sorted((name, float(coefficient))
                     for name, coefficient in coefficients.items()
                     if name not in iterators)),
        float(constant))


def nest_accesses(loop):
    """``(computation, enclosing iterators, accesses)`` of every computation
    of a nest, each decomposed over the iterators that enclose it."""
    from repro.analysis.affine import computation_accesses, nest_statements
    from repro.ir.nodes import Computation

    return [(node, enclosing, computation_accesses(node, enclosing))
            for node, enclosing in nest_statements(loop)
            if isinstance(node, Computation)]


def spec_band_strides(loop, arrays, parameters=None):
    """``band_strides`` as it was before it read the subscripts' affine
    forms: every access decomposed over the iterators enclosing it, each
    band iterator's stride through ``access_stride``."""
    from repro.analysis.strides import (BandStrides, _array_strides,
                                        access_stride)

    parameters = dict(parameters or {})
    per_iterator = {lp.iterator: 0.0 for lp in loop.perfectly_nested_band()}
    non_affine = 0
    penalty = 0.0
    for _comp, _enclosing, accesses in nest_accesses(loop):
        for access in accesses:
            if access.array not in arrays:
                continue
            strides = _array_strides(arrays[access.array], parameters)
            if not access.affine:
                non_affine += 1
                penalty += max(strides) if strides else 1.0
                continue
            for iterator in per_iterator.keys() & access.columns.keys():
                stride = access_stride(access, iterator, strides)
                if stride is not None:
                    per_iterator[iterator] += abs(stride)
    return BandStrides(per_iterator, penalty, non_affine)


# -- shared fast-session preset ------------------------------------------------

#: GEMM parameter bindings many API/serving tests schedule with.
GEMM_PARAMS = {"NI": 64, "NJ": 48, "NK": 32}


#: The ways a request can be malformed that the session's boundary refuses.
MALFORMED = ("rank-mismatch", "undeclared-container", "unbound-parameter",
             "read-in-bound", "read-in-index", "read-in-shape",
             "constant-zero-divisor", "parameter-zero-divisor",
             "zero-step", "negative-step", "parameter-negative-step",
             "unknown-intrinsic")


def malformed_gemm(*kinds):
    """``(build_gemm(), GEMM_PARAMS)`` made malformed in each way ``kinds``
    (each one of :data:`MALFORMED`) name, in that order."""
    program, parameters = build_gemm(), dict(GEMM_PARAMS)
    for kind in kinds:
        _malform(program, parameters, kind)
    return program, parameters


def _malform(program, parameters, kind):
    update = program.body[1].body[0].body[0].body[0]    # C[i, j] += ...
    a00 = Read("A", (Const(0), Const(0)))
    if kind == "rank-mismatch":
        update.target = ArrayAccess("C", (Sym("i"),))
    elif kind == "undeclared-container":
        update.value = Read("ghost", (Sym("i"), Sym("k")))
    elif kind == "unbound-parameter":
        del parameters["NK"]
    elif kind == "read-in-bound":
        program.body[0].end = a00
    elif kind == "read-in-index":
        update.target = ArrayAccess("C", (a00, Sym("j")))
    elif kind == "read-in-shape":
        program.arrays["B"] = Array("B", (Sym("NK"), a00))
    elif kind == "unknown-intrinsic":
        update.value = Call("foo", (Read("A", (Sym("i"), Sym("k"))),))
    elif kind == "constant-zero-divisor":
        # The bare constructor: ``FloorDiv.make`` already refuses it.
        program.body[0].end = FloorDiv(Const(8), Const(0))
    elif kind in ("zero-step", "negative-step"):
        program.body[1].step = Const(0 if kind == "zero-step" else -1)
    elif kind == "parameter-negative-step":
        program.parameters.append("S")
        program.body[1].step = Sym("S")
        parameters["S"] = -1
    else:
        assert kind == "parameter-zero-divisor", kind
        program.parameters.append("M")
        program.body[0].end = FloorDiv(Sym("NI"), Sym("M"))
        parameters["M"] = 0


def fast_session(**kwargs):
    """A Session with a minimal evolutionary search (fast enough for tests)."""
    from repro.api import SearchConfig, Session

    kwargs.setdefault("search", SearchConfig(population_size=4, epochs=1,
                                             generations_per_epoch=1))
    kwargs.setdefault("threads", 4)
    return Session(**kwargs)


# -- serving: a stub session and a held request -------------------------------

def stub_response(program):
    """A ScheduleResponse-shaped object (enough for service bookkeeping and
    the coalescing ``_reissue`` path)."""
    result = types.SimpleNamespace(
        program=types.SimpleNamespace(name=str(program)))
    result.copy = lambda: result
    return types.SimpleNamespace(
        result=result, scheduler="stub", program=result.program,
        runtime_s=0.0, normalized=False, input_hash=None,
        canonical_hash=None, from_cache=False,
        normalization_cache_hit=False)


class StubSession:
    """Session stand-in recording the order requests reach the executor
    (a runner counts coalesced rides in its own ``stats``).  It has the
    members a runner reads: a registry, a disabled tracer, and a response
    cache that never hits and keeps nothing."""

    def __init__(self):
        self.order = []
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(enabled=False)

    def lookup_response(self, request, key=None):
        return None

    def store_response(self, request, response):
        pass

    def schedule(self, request):
        self.order.append(request.program)
        return stub_response(request.program)


def wait_until(condition, timeout=60.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting: {condition}"
        time.sleep(0.001)


def hold_next_request(runner, until, timeout=60.0):
    """Make the runner's next request, once claimed, wait until ``until()``
    is true before it is scheduled; returns an event set when it starts
    waiting.  While it waits nothing else is claimed, so arrivals queue (or
    are shed) as they would behind a slow schedule."""
    session = runner.session
    schedule = session.schedule
    held = threading.Event()

    def holding(*args, **kwargs):
        session.schedule = schedule  # only this request waits
        held.set()
        wait_until(until, timeout)
        return schedule(*args, **kwargs)

    session.schedule = holding
    return held


def queue_behind(runner, first, requests, timeout=60.0):
    """Schedule ``first`` and hold it while ``requests`` are
    submitted, one thread each, each admitted (or shed) before the next is
    sent; then release it.  Returns every outcome — a response or the
    exception raised — in the order ``[first, *requests]``.

    So ``requests`` queue in priority order or ride an identical in-flight
    request, as a burst does behind a slow schedule.
    """
    release = threading.Event()
    held = hold_next_request(runner, release.is_set, timeout)

    def outcome(request):
        try:
            return runner.schedule(request, timeout)
        except Exception as error:  # noqa: BLE001 - returned to the test
            return error

    def arrived():
        return runner.stats.requests + runner.stats.rejected

    with ThreadPoolExecutor(len(requests) + 1) as pool:
        futures = [pool.submit(outcome, first)]
        assert held.wait(timeout)
        for request in requests:
            expected = arrived() + 1
            futures.append(pool.submit(outcome, request))
            wait_until(lambda: arrived() == expected, timeout)
        release.set()
        return [future.result() for future in futures]
