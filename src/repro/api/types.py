"""Typed request/response objects of the :class:`repro.api.Session` facade.

Consumers used to pass ad-hoc ``(program, parameters)`` tuples around and
unpack ``(program, report)`` results; the facade instead speaks small
dataclasses that serialize to plain dictionaries (so requests can be
persisted, sent over HTTP, and replayed).  ``from_dict`` reads the keys
it knows and ignores any other, so a request body carrying an unknown key
is served exactly as the same body without it.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..ir.nodes import Program
from ..ir.serialization import program_from_dict, program_to_dict
from ..normalization.pipeline import NormalizationReport
from ..scheduler.base import ScheduleResult

#: What ``Session.load`` accepts: an IR program, C-like source text, or a
#: workload-registry name (optionally suffixed ``:a`` / ``:b`` / ``:npbench``).
ProgramLike = Union[Program, str]

#: The priority scale of :attr:`ScheduleRequest.priority`: 0 is the most
#: urgent, 9 the least.  A serving queue drains strictly in this order.
HIGHEST_PRIORITY = 0
LOWEST_PRIORITY = 9
DEFAULT_PRIORITY = 5


@dataclass
class ScheduleRequest:
    """One scheduling job.

    ``program`` may be anything :meth:`repro.api.Session.load` accepts.
    ``scheduler`` / ``threads`` / ``normalize`` default to the session's
    configuration (``normalize=None`` means "whatever the scheduler's
    registry metadata says").  ``pipeline`` selects a registered
    normalization pipeline by name for this request (``"a-priori"``,
    ``"no-fission"``, ...; ``None`` uses the session's configuration).

    ``priority`` and ``client`` only matter to a serving layer: priorities
    run 0 (most urgent) through 9 (least, the default is
    :data:`DEFAULT_PRIORITY`), and the serving queue drains strictly in
    priority order (FIFO within one priority).
    ``client`` is an opaque caller identity used for per-client admission
    control; neither field affects the scheduling outcome, so they are
    excluded from coalescing fingerprints and cache keys.
    """

    program: ProgramLike
    parameters: Optional[Mapping[str, int]] = None
    scheduler: Optional[str] = None
    threads: Optional[int] = None
    label: Optional[str] = None
    normalize: Optional[bool] = None
    tune: bool = False
    pipeline: Optional[str] = None
    priority: int = DEFAULT_PRIORITY
    client: Optional[str] = None
    #: Propagated trace context (``{"trace_id", "span_id"}``), set by a
    #: serving layer so the session's spans join the service's trace.
    #: Like ``priority``/``client`` it never affects the scheduling outcome
    #: and is excluded from coalescing fingerprints and cache keys.
    trace: Optional[Dict[str, str]] = None

    def to_dict(self) -> Dict[str, Any]:
        program = self.program
        payload = {
            "program": (program_to_dict(program) if isinstance(program, Program)
                        else program),
            "parameters": (dict(self.parameters) if self.parameters is not None
                           else None),
            "scheduler": self.scheduler,
            "threads": self.threads,
            "label": self.label,
            "normalize": self.normalize,
            "tune": self.tune,
            "pipeline": self.pipeline,
            "priority": self.priority,
            "client": self.client,
        }
        if self.trace is not None:
            payload["trace"] = dict(self.trace)
        return payload

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "ScheduleRequest":
        program = data["program"]
        if isinstance(program, Mapping):
            program = program_from_dict(dict(program))
        # An explicit JSON null priority means "the default", not int(None).
        priority = data.get("priority")
        return ScheduleRequest(
            program=program,
            parameters=data.get("parameters"),
            scheduler=data.get("scheduler"),
            threads=data.get("threads"),
            label=data.get("label"),
            normalize=data.get("normalize"),
            tune=bool(data.get("tune", False)),
            pipeline=data.get("pipeline"),
            priority=DEFAULT_PRIORITY if priority is None else int(priority),
            client=data.get("client"),
            trace=dict(data["trace"]) if data.get("trace") else None,
        )


@dataclass
class NormalizeResponse:
    """Outcome of running a program through the normalization cache."""

    program: Program
    report: NormalizationReport
    input_hash: str
    canonical_hash: str
    cache_hit: bool

    def summary(self) -> str:
        origin = "cache" if self.cache_hit else "pipeline"
        return f"{self.report.summary()} [{origin}, {self.canonical_hash[:12]}]"


@dataclass
class ScheduleResponse:
    """Outcome of one scheduling job — the one response type of every lane.

    ``program`` is the scheduled program; ``result`` carries the per-nest
    details. ``from_cache`` is True when the whole schedule was served from
    the content-addressed cache (a normalized-equivalent variant was already
    scheduled), ``normalization_cache_hit`` when only the normalization was.

    A response is backed either by its fields (what a session constructs)
    or by its JSON text (:meth:`from_json`: what the response fast lane and
    the HTTP client hand over).  The serving layers mostly
    shuttle response bytes onward — the HTTP handler replies with exactly
    :meth:`to_json` — so a text-backed response parses nothing until a
    *field* is read.  The first read of a scalar field decodes only what
    sits outside the program: the head key ``scheduler`` and the tail after
    the ``request`` echo (:func:`echo_span`), which answer all eight
    scalars.  The first read of ``request``, ``program`` or ``result``
    parses the whole text once; ``request`` and the IR-bearing ``program``
    / ``result`` are built from that payload when they are read.  A text
    in any other layout (compact separators, reordered keys) is parsed
    whole on the first read of any field.  Its text stays the source of
    truth for :meth:`to_json` / :meth:`to_dict`: treat it as read-only.
    """

    request: ScheduleRequest
    scheduler: str
    program: Program
    result: ScheduleResult
    runtime_s: float
    normalized: bool
    input_hash: Optional[str] = None
    canonical_hash: Optional[str] = None
    from_cache: bool = False
    normalization_cache_hit: bool = False
    #: Trace id of the request's span tree, when tracing was active;
    #: cross-references the access log and /v1/traces.
    trace_id: Optional[str] = None

    # The encoded text of a text-backed response.  Un-annotated on purpose:
    # a plain class attribute, not a dataclass field.
    _json = None

    @classmethod
    def from_json(cls, text: str) -> "ScheduleResponse":
        """A response backed by its encoded JSON ``text`` (no parse)."""
        response = object.__new__(cls)
        response._json = text
        return response

    def __getattr__(self, name: str) -> Any:
        # Only reached when ``name`` is not set on the instance: a field of
        # a text-backed response that has not been decoded yet.
        text = self._json
        if text is None or name not in self.__dataclass_fields__:
            raise AttributeError(name)
        state = self.__dict__
        data = state.get("_payload")
        if data is None:
            scalars = (_text_scalars(text) if name not in _DECODED_FIELDS
                       else None)
            if scalars is not None:
                state.update(scalars)
                return state[name]
            data = state["_payload"] = json.loads(text)
            if "scheduler" not in state:      # not answered by the tail
                state.update(_scalar_fields(data))
        if name == "request":
            state["request"] = ScheduleRequest.from_dict(data["request"])
        elif name in ("program", "result"):
            result = state["result"] = ScheduleResult.from_dict(data)
            state["program"] = result.program
        return state[name]

    def summary(self) -> str:
        cached = " [cached]" if self.from_cache else ""
        return f"{self.result.summary()} est={self.runtime_s:.3e}s{cached}"

    def to_json(self) -> str:
        """The response as JSON text — the bytes a server replies with
        (the stored text itself, unparsed, when text-backed)."""
        if self._json is not None:
            return self._json
        return json.dumps(self.to_dict())

    def to_dict(self) -> Dict[str, Any]:
        if self._json is not None:
            return json.loads(self._json)
        data = self.result.to_dict()
        if self.program is not self.result.program:
            # Normally the same object (every construction path shares it);
            # avoid serializing the full IR twice on the serving hot path.
            data["program"] = program_to_dict(self.program)
        data.update({
            "request": self.request.to_dict(),
            "scheduler": self.scheduler,
            "runtime_s": self.runtime_s,
            "normalized": self.normalized,
            "input_hash": self.input_hash,
            "canonical_hash": self.canonical_hash,
            "from_cache": self.from_cache,
            "normalization_cache_hit": self.normalization_cache_hit,
        })
        if self.trace_id is not None:
            data["trace_id"] = self.trace_id
        return data

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "ScheduleResponse":
        result = ScheduleResult.from_dict(data)
        return ScheduleResponse(
            request=ScheduleRequest.from_dict(data["request"]),
            program=result.program, result=result, **_scalar_fields(data))


def _scalar_fields(data: Mapping[str, Any]) -> Dict[str, Any]:
    """The :class:`ScheduleResponse` fields a parsed payload answers as is."""
    return {
        "scheduler": data["scheduler"],
        "runtime_s": float(data["runtime_s"]),
        "normalized": bool(data.get("normalized", False)),
        "input_hash": data.get("input_hash"),
        "canonical_hash": data.get("canonical_hash"),
        "from_cache": bool(data.get("from_cache", False)),
        "normalization_cache_hit": bool(
            data.get("normalization_cache_hit", False)),
        "trace_id": data.get("trace_id"),
    }


#: The fields of a text-backed response that need the whole text parsed.
_DECODED_FIELDS = frozenset(("request", "program", "result"))
#: How ``json.dumps`` writes a response's head key, the key of its request
#: echo (whose first key is always ``program``) and its tail's first key.
_HEAD = '{"scheduler": "'
_ECHO = ', "request": {"program": '
_TAIL = '}, "runtime_s": '
#: The keys of a tail, besides the optional ``trace_id``.
_TAIL_KEYS = frozenset(("runtime_s", "normalized", "input_hash",
                        "canonical_hash", "from_cache",
                        "normalization_cache_hit"))


def _tail_start(text: str) -> int:
    """Where the scalar tail of a response text starts, just after the
    request echo's closing brace; -1 unless the text is headed by
    ``scheduler`` and has a tail, as ``json.dumps`` writes them.

    The tail holds no object, so the last match of its first key is the
    tail's own.  A quote inside a JSON string is always escaped, so no
    label, client or program name can match a key.
    """
    if not text.startswith(_HEAD):
        return -1
    return text.rfind(_TAIL) + 1 or -1


def echo_span(text: str) -> Optional[Tuple[int, int]]:
    """Where the request echo is in a response text: ``(start, end)``.

    ``text[:start]`` ends with the echo's key, ``text[start:end]`` is the
    echo and ``text[end:]`` the scalar tail (``, "runtime_s": ...}``), as
    ``json.dumps(response.to_dict())`` writes them.  Returns ``None`` for a
    text in another layout (see :func:`_tail_start`) or one whose echo key
    occurs twice: IR may nest any object in library-call metadata, and a
    repeat is refused, not guessed at.
    """
    end = _tail_start(text)
    key = text.find(_ECHO)
    if end < 0 or key < 0 or text.rfind(_ECHO, 0, end) != key:
        return None
    return key + len(', "request": '), end


def _text_scalars(text: str) -> Optional[Dict[str, Any]]:
    """The scalar fields of a response text, decoded from its head key and
    its tail alone (``None`` when they are not where :func:`_tail_start`
    expects them)."""
    end = _tail_start(text)
    if end < 0:
        return None
    # The first '", "' after the opening quote closes the name, or the
    # slice is not one JSON string and does not decode.
    stop = text.find('", "', len(_HEAD))
    try:
        scheduler = json.loads(text[len(_HEAD) - 1:stop + 1])
        tail = json.loads("{" + text[end + 2:])
    except ValueError:
        return None
    if tail.keys() - {"trace_id"} != _TAIL_KEYS:
        return None
    tail["scheduler"] = scheduler
    return _scalar_fields(tail)


# Dataclass defaults are also set as class attributes, where they would
# answer ``from_cache`` / ``trace_id`` on an undecoded text-backed response
# without ever reaching ``__getattr__``; the generated ``__init__`` keeps
# its own copies of the defaults.
for _field in fields(ScheduleResponse):
    if _field.default is not MISSING:
        delattr(ScheduleResponse, _field.name)
del _field


@dataclass
class ExecuteResponse:
    """Outcome of interpreting a program on concrete inputs."""

    program: Program
    parameters: Dict[str, int]
    outputs: Dict[str, Any]

    def output(self, name: str) -> Any:
        return self.outputs[name]


@dataclass
class SessionReport:
    """A snapshot of everything a session did (returned by ``report()``).

    ``cache_backend`` names the storage backend of the normalization cache;
    ``cache_memory_hits`` / ``cache_disk_hits`` split backend hits between
    the in-process layer and persistent storage (disk hits only occur on
    persistent backends), and ``cache_busy_retries`` counts writes that
    found the store locked by another process and had to retry — the
    contention signal of a cache file shared across processes.
    ``database_version`` is the tuning database's content version
    (:attr:`~repro.scheduler.database.TuningDatabase.version`).

    ``normalization_passes`` aggregates the instrumented pass results of
    every pipeline run the session's cache performed: per pass name, the
    number of runs, how many changed the program, total wall time, and the
    summed IR-size delta.
    """

    schedule_calls: int = 0
    tune_calls: int = 0
    execute_calls: int = 0
    normalization_hits: int = 0
    normalization_misses: int = 0
    schedule_cache_hits: int = 0
    schedule_cache_misses: int = 0
    cache_evictions: int = 0
    database_entries: int = 0
    schedulers: List[str] = field(default_factory=list)
    cache_backend: str = "memory"
    cache_memory_hits: int = 0
    cache_disk_hits: int = 0
    cache_writes: int = 0
    cache_busy_retries: int = 0
    #: Response-level (fast-lane) cache traffic: hits were served as
    #: pre-encoded bytes without touching the session or the IR.
    response_cache_hits: int = 0
    response_cache_misses: int = 0
    database_version: str = ""
    normalization_passes: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "SessionReport":
        known = {f.name for f in fields(SessionReport)}
        return SessionReport(**{key: value for key, value in data.items()
                                if key in known})

    def summary(self) -> str:
        extras = ""
        if self.cache_backend != "memory":
            extras += (f", {self.cache_backend} backend "
                       f"({self.cache_memory_hits} memory / "
                       f"{self.cache_disk_hits} disk hits)")
        return (f"{self.schedule_calls} schedules ({self.schedule_cache_hits} served "
                f"from cache), {self.tune_calls} tunes, "
                f"{self.normalization_hits}/{self.normalization_hits + self.normalization_misses} "
                f"normalization cache hits, {self.database_entries} database entries"
                + extras)
