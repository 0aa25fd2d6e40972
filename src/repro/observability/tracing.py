"""Dependency-free request tracing with deterministic, propagatable IDs.

The tracer records *spans* — named, timed segments of work — grouped into
*traces* keyed by a ``trace_id`` deterministically derived from the request
id.  Within one process the active span propagates through a
:class:`contextvars.ContextVar`, so deeply nested code (passes, cache
lookups, scheduler search) can attach child spans via the module-level
:func:`span` context manager without any plumbing.  Between the service
and the session the context travels explicitly (a request is scheduled
on the service's batcher thread): the service puts
``{"trace_id", "span_id"}`` on the request and the session re-activates it
with :meth:`Tracer.activate`.

Finished traces live in a bounded in-memory ring buffer
(:meth:`Tracer.traces` / :meth:`Tracer.get`) and export as JSONL
(:func:`traces_to_jsonl`) or the Chrome trace-event format
(:func:`chrome_trace_document`) that ``chrome://tracing`` and Perfetto
load directly.
"""

import contextlib
import contextvars
import hashlib
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "Span",
    "TraceRecord",
    "Tracer",
    "chrome_trace_document",
    "current_trace_id",
    "span",
    "traces_to_jsonl",
]

#: Active tracing scope for the current logical context: ``(tracer, ref)``
#: where ``ref`` tracks the innermost open span so nested ``span()`` blocks
#: parent correctly even though ContextVar values are immutable snapshots.
_ACTIVE = contextvars.ContextVar("repro_trace_active", default=None)

#: Most traces a tracer holds open at once; the oldest open one is dropped
#: past this (a root that never finishes must not grow the table forever).
MAX_OPEN_TRACES = 1024


def _hash_id(material: str) -> str:
    """A short, stable hex id derived from ``material``."""
    return hashlib.blake2s(material.encode("utf-8"), digest_size=8).hexdigest()


def _root_ids(request_id: str) -> Tuple[str, str]:
    """A request's trace id and root span id, both from one digest."""
    ids = hashlib.blake2s(f"trace:{request_id}".encode("utf-8"),
                          digest_size=16).hexdigest()
    return ids[:16], ids[16:]


def _span_order(span: "Span") -> Tuple[float, str]:
    """The order of a finished trace's spans."""
    return span.start_s, span.span_id


@dataclass
class Span:
    """One named, timed segment of work inside a trace."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    start_s: float
    end_s: float = 0.0
    attributes: Dict[str, Any] = field(default_factory=dict)
    status: str = "ok"
    thread: int = 0

    def context(self) -> Dict[str, str]:
        """The wire form used to propagate this span across boundaries."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @property
    def duration_s(self) -> float:
        return max(0.0, self.end_s - self.start_s)

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def set_attributes(self, **attributes: Any) -> None:
        self.attributes.update(attributes)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "attributes": dict(self.attributes),
            "status": self.status,
            "thread": self.thread,
        }


class _NullSpan:
    """No-op span handed out when tracing is inactive or disabled."""

    __slots__ = ()

    trace_id = ""
    span_id = ""
    parent_id = None
    name = ""
    status = "ok"
    attributes: Dict[str, Any] = {}

    def context(self) -> Dict[str, str]:
        return {}

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def set_attributes(self, **attributes: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


class _SpanRef:
    """Mutable holder for the innermost open span of an activation."""

    __slots__ = ("span",)

    def __init__(self, span: Optional[Span] = None):
        self.span = span


@dataclass
class TraceRecord:
    """A finished trace: the root span's identity plus every span."""

    trace_id: str
    name: str
    start_s: float
    end_s: float
    status: str
    attributes: Dict[str, Any]
    spans: List[Span]

    @property
    def duration_s(self) -> float:
        return max(0.0, self.end_s - self.start_s)

    def summary(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "status": self.status,
            "span_count": len(self.spans),
            "attributes": dict(self.attributes),
        }

    def to_dict(self) -> Dict[str, Any]:
        payload = self.summary()
        payload["end_s"] = self.end_s
        payload["spans"] = [s.to_dict() for s in self.spans]
        payload["tree"] = self.tree()
        return payload

    def tree(self) -> List[Dict[str, Any]]:
        """Nested span tree; spans with unknown parents become roots."""
        nodes = {}
        for s in self.spans:
            node = s.to_dict()
            node["children"] = []
            nodes[s.span_id] = node
        roots = []
        for s in self.spans:
            node = nodes[s.span_id]
            parent = nodes.get(s.parent_id) if s.parent_id else None
            if parent is None:
                roots.append(node)
            else:
                parent["children"].append(node)
        return roots

    @classmethod
    def of_root(cls, root: Span, spans: List[Span]) -> "TraceRecord":
        """The finished trace closed by the parentless ``root``."""
        return cls(trace_id=root.trace_id, name=root.name,
                   start_s=root.start_s, end_s=root.end_s, status=root.status,
                   attributes=dict(root.attributes), spans=spans)


class Tracer:
    """Span factory + bounded ring buffer of finished traces.

    Thread-safe; one instance per session.
    """

    def __init__(self, capacity: int = 256, enabled: bool = True):
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        self.capacity = capacity
        self.enabled = enabled
        self._lock = threading.RLock()
        self._open: "OrderedDict[str, List[Span]]" = OrderedDict()
        self._seq: Dict[str, int] = {}
        #: Finished traces, oldest first.
        self._finished: "OrderedDict[str, TraceRecord]" = OrderedDict()

    # -- identity ---------------------------------------------------------

    @staticmethod
    def trace_id_for(request_id: str) -> str:
        """Deterministic trace id for a request id (stable across layers)."""
        return _root_ids(request_id)[0]

    def _next_span_id(self, trace_id: str, parent_id: Optional[str],
                      name: str) -> str:
        with self._lock:
            seq = self._seq.get(trace_id, 0)
            self._seq[trace_id] = seq + 1
        return _hash_id(f"span:{trace_id}:{parent_id}:{name}:{seq}")

    # -- span lifecycle ---------------------------------------------------

    def begin(self, name: str, trace_id: str,
              parent_id: Optional[str] = None,
              attrs: Optional[Mapping[str, Any]] = None,
              start_s: Optional[float] = None) -> Span:
        """Open a span; pair with :meth:`finish`."""
        return Span(
            trace_id=trace_id,
            span_id=self._next_span_id(trace_id, parent_id, name),
            parent_id=parent_id,
            name=name,
            start_s=time.time() if start_s is None else start_s,
            attributes=dict(attrs) if attrs else {},
            thread=threading.get_ident(),
        )

    def begin_request(self, request_id: str, attributes: Dict[str, Any],
                      start_s: float) -> Span:
        """Open a served request's ``request`` root span; pair with
        :meth:`finish`.  Its trace id (:meth:`trace_id_for`) and span id
        both come from one digest of ``request_id``."""
        trace_id, span_id = _root_ids(request_id)
        return Span(trace_id=trace_id, span_id=span_id, parent_id=None,
                    name="request", start_s=start_s, attributes=attributes,
                    thread=threading.get_ident())

    def finish(self, span: Span, status: Optional[str] = None,
               end_s: Optional[float] = None) -> Span:
        span.end_s = time.time() if end_s is None else end_s
        if status is not None:
            span.status = status
        self._record(span)
        return span

    def record(self, trace_id: str, parent_id: Optional[str], name: str,
               start_s: float, end_s: float,
               attrs: Optional[Mapping[str, Any]] = None,
               status: str = "ok") -> Span:
        """Record an already-timed span (e.g. queue wait) in one call."""
        span = self.begin(name, trace_id, parent_id, attrs, start_s=start_s)
        return self.finish(span, status=status, end_s=end_s)

    def _record(self, span: Span) -> None:
        with self._lock:
            record = self._finished.get(span.trace_id)
            if record is not None:
                # Late span for an already-finalized trace (its caller
                # stopped waiting: a timeout or stop()): append.
                record.spans.append(span)
                record.spans.sort(key=_span_order)
                return
            if span.parent_id is None:
                # A root closes its trace.
                spans = self._open.pop(span.trace_id, [])
                spans.append(span)
                self._finalize(span, spans)
                return
            self._open.setdefault(span.trace_id, []).append(span)
            while len(self._open) > MAX_OPEN_TRACES:
                stale, _ = self._open.popitem(last=False)
                self._seq.pop(stale, None)

    def _finalize(self, root: Span, spans: List[Span]) -> None:
        self._seq.pop(root.trace_id, None)
        if len(spans) > 1:
            spans.sort(key=_span_order)
        # A new key: _record checked.
        self._finished[root.trace_id] = TraceRecord.of_root(root, spans)
        while len(self._finished) > self.capacity:
            self._finished.popitem(last=False)

    @contextlib.contextmanager
    def activate(self, context: Mapping[str, str]):
        """Re-activate a propagated trace context in this process.

        Does not open a span itself; nested :func:`span` calls parent
        under ``context["span_id"]``.
        """
        trace_id = context.get("trace_id") if context else None
        if not trace_id or not self.enabled:
            yield NULL_SPAN
            return
        anchor = Span(
            trace_id=trace_id,
            span_id=context.get("span_id", ""),
            parent_id=None,
            name="",
            start_s=0.0,
        )
        token = _ACTIVE.set((self, _SpanRef(anchor)))
        try:
            yield anchor
        finally:
            _ACTIVE.reset(token)

    @contextlib.contextmanager
    def trace(self, name: str, trace_id: Optional[str] = None,
              request_id: Optional[str] = None, **attrs: Any):
        """Open a root span and make it the active context."""
        if not self.enabled:
            yield NULL_SPAN
            return
        if trace_id is None:
            material = request_id if request_id is not None else uuid.uuid4().hex
            trace_id = self.trace_id_for(material)
        root = self.begin(name, trace_id, attrs=attrs)
        token = _ACTIVE.set((self, _SpanRef(root)))
        status = "ok"
        try:
            yield root
        except BaseException:
            status = "error"
            raise
        finally:
            _ACTIVE.reset(token)
            self.finish(root, status=root.status if status == "ok" else status)

    # -- ring-buffer access ----------------------------------------------

    @property
    def stored(self) -> int:
        with self._lock:
            return len(self._finished)

    def traces(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Newest-first summaries of finished traces."""
        with self._lock:
            records = list(reversed(self._finished.values()))
        if limit is not None:
            records = records[:max(0, int(limit))]
        return [r.summary() for r in records]

    def get(self, trace_id: str) -> Optional[TraceRecord]:
        with self._lock:
            return self._finished.get(trace_id)


class _SpanScope:
    """Context manager behind the module-level :func:`span` helper."""

    __slots__ = ("_name", "_attributes", "_tracer", "_ref", "_parent", "span")

    def __init__(self, name: str, attributes: Dict[str, Any]):
        self._name = name
        self._attributes = attributes
        self._tracer = None
        self._ref = None
        self._parent = None
        self.span = NULL_SPAN

    def __enter__(self):
        active = _ACTIVE.get()
        if active is None:
            return NULL_SPAN
        tracer, ref = active
        if not tracer.enabled or ref.span is None:
            return NULL_SPAN
        self._tracer, self._ref, self._parent = tracer, ref, ref.span
        self.span = tracer.begin(
            self._name, self._parent.trace_id,
            parent_id=self._parent.span_id or None,
            attrs=self._attributes)
        ref.span = self.span
        return self.span

    def __exit__(self, exc_type, exc, tb):
        if self._tracer is None:
            return False
        self._ref.span = self._parent
        status = "ok"
        if exc_type is not None:
            status = "error"
            self.span.attributes.setdefault("error", repr(exc))
        self._tracer.finish(self.span, status=status)
        return False


def span(name: str, **attributes: Any) -> _SpanScope:
    """Open a child span under the active trace (no-op when none)."""
    return _SpanScope(name, attributes)


def current_trace_id() -> Optional[str]:
    """The trace id of the active context, if any."""
    active = _ACTIVE.get()
    if active is None:
        return None
    ref = active[1]
    if ref.span is None or not ref.span.trace_id:
        return None
    return ref.span.trace_id


# -- exporters ------------------------------------------------------------

def _iter_span_dicts(traces) -> Iterable[Dict[str, Any]]:
    for trace in traces:
        if isinstance(trace, TraceRecord):
            for s in trace.spans:
                yield s.to_dict()
        else:
            for s in trace.get("spans", []):
                yield dict(s)


def chrome_trace_document(traces) -> Dict[str, Any]:
    """Chrome trace-event JSON (``chrome://tracing`` / Perfetto loadable).

    ``traces`` is an iterable of :class:`TraceRecord` or trace dicts (as
    returned by ``GET /v1/traces/<id>``).  Every span ran in the one
    serving process, so every event carries pid 1.
    """
    events: List[Dict[str, Any]] = []
    for data in _iter_span_dicts(traces):
        args = dict(data.get("attributes", {}))
        args["trace_id"] = data.get("trace_id", "")
        args["status"] = data.get("status", "ok")
        events.append({
            "name": data.get("name", "span"),
            "cat": "repro",
            "ph": "X",
            "pid": 1,
            "tid": data.get("thread", 0) % 2 ** 31,
            "ts": data.get("start_s", 0.0) * 1e6,
            "dur": max(data.get("end_s", 0.0) - data.get("start_s", 0.0),
                       0.0) * 1e6,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def traces_to_jsonl(traces) -> str:
    """One JSON span per line, for grep-friendly archival."""
    import json

    lines = [json.dumps(data, sort_keys=True)
             for data in _iter_span_dicts(traces)]
    return "\n".join(lines) + ("\n" if lines else "")
