"""Dependency-free metrics primitives: counters, gauges, histograms.

The serving stack needs distributional telemetry — *OpenMP Loop Scheduling
Revisited* (Ciorba et al.) makes the case that validating a scheduling
policy takes latency distributions, not averages — but the repo must not
grow a client-library dependency for it.  This module is a small,
self-contained metrics core:

* :class:`MetricsRegistry` — a named collection of instruments.  Creation
  is idempotent (asking for an existing name returns the existing
  instrument, after checking that type/labels/buckets agree), so any layer
  holding the registry can declare the instruments it touches.
* :class:`Counter` / :class:`Gauge` / :class:`Histogram` — thread-safe
  instruments with optional label dimensions (``labels("5")`` /
  ``labels(priority="5")`` binds one labelled series).  Histograms use
  fixed upper-bound buckets (Prometheus ``le`` semantics).
* **Snapshots** — :meth:`MetricsRegistry.to_dict` is a plain
  JSON-serializable snapshot (``/alerts`` evaluates its rule over one,
  ``warm-cache --metrics-json`` writes it).
* **Prometheus text rendering** — :meth:`MetricsRegistry.render` (and
  :func:`render_registry_dict` for a snapshot) produce the Prometheus
  text exposition format served by the ``/metrics`` endpoint.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

#: Default latency buckets (seconds): sub-millisecond cache hits through
#: multi-second cold scheduling runs.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class MetricsError(ValueError):
    """Invalid metric declaration or use (bad name, label mismatch, ...)."""


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise MetricsError(f"invalid metric name {name!r}")
    return name


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _format_number(value: float) -> str:
    """Prometheus-style sample formatting: integral values without a dot."""
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class _Instrument:
    """Shared base: a named metric holding one series per label-value tuple."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()):
        self.name = _check_name(name)
        self.help = help
        self.labelnames = tuple(labelnames)
        for label in self.labelnames:
            if not _LABEL_RE.match(label):
                raise MetricsError(f"invalid label name {label!r} on {name!r}")
        self._lock = threading.RLock()
        self._series: "Dict[Tuple[str, ...], Any]" = {}
        self._unlabelled: Any = None

    # -- label binding ----------------------------------------------------------

    def labels(self, *values: Any, **kwargs: Any):
        """Bind one labelled series (``labels("5")`` or ``labels(priority="5")``);
        values are stringified.  Label-less instruments bind the empty tuple."""
        if values and kwargs:
            raise MetricsError("pass label values positionally or by name, "
                               "not both")
        if kwargs:
            try:
                values = tuple(kwargs[label] for label in self.labelnames)
            except KeyError as error:
                raise MetricsError(
                    f"{self.name} expects labels {self.labelnames}, "
                    f"got {sorted(kwargs)}") from error
            if len(kwargs) != len(self.labelnames):
                raise MetricsError(
                    f"{self.name} expects labels {self.labelnames}, "
                    f"got {sorted(kwargs)}")
        key = tuple(str(value) for value in values)
        if len(key) != len(self.labelnames):
            raise MetricsError(
                f"{self.name} takes {len(self.labelnames)} label value(s) "
                f"{self.labelnames}, got {len(key)}")
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._new_series()
                self._series[key] = series
            return series

    def _new_series(self):
        raise NotImplementedError

    def _default(self):
        """The series bound to no labels (label-less metrics), bound once."""
        if self._unlabelled is None:
            self._unlabelled = self.labels()
        return self._unlabelled

    def series_items(self) -> List[Tuple[Tuple[str, ...], Any]]:
        with self._lock:
            return sorted(self._series.items())

    def signature(self) -> Tuple[str, Tuple[str, ...]]:
        return (self.kind, self.labelnames)


class _CounterSeries:
    """One monotonically increasing series."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.RLock):
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricsError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Counter(_Instrument):
    """A monotonically increasing count (requests served, entries shed)."""

    kind = "counter"

    def _new_series(self) -> _CounterSeries:
        return _CounterSeries(self._lock)

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    @property
    def value(self) -> float:
        return self._default().value


class _GaugeSeries:
    """One settable series."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.RLock):
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge(_Instrument):
    """A value that goes up and down (queue depth)."""

    kind = "gauge"

    def _new_series(self) -> _GaugeSeries:
        return _GaugeSeries(self._lock)

    def set(self, value: float) -> None:
        self._default().set(value)

    @property
    def value(self) -> float:
        return self._default().value


class _HistogramSeries:
    """One observation distribution over fixed buckets.

    ``counts[i]`` is the number of observations in bucket *i* alone (the
    rendering layer accumulates them into Prometheus's cumulative ``le``
    form); the final slot counts overflow beyond the largest bound.
    """

    __slots__ = ("_lock", "bounds", "counts", "_sum")

    def __init__(self, lock: threading.RLock, bounds: Tuple[float, ...]):
        self._lock = lock
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self._sum = 0.0

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self.counts[index] += 1
            self._sum += value

    @property
    def count(self) -> int:
        with self._lock:
            return sum(self.counts)

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum


class Histogram(_Instrument):
    """Fixed-bucket distribution (latency per priority class)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        super().__init__(name, help, labelnames)
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds:
            raise MetricsError(f"{name!r} needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise MetricsError(
                f"{name!r} bucket bounds must strictly increase: {bounds}")
        if any(math.isinf(b) or math.isnan(b) for b in bounds):
            raise MetricsError(f"{name!r} bounds must be finite "
                               "(+Inf is implicit)")
        self.buckets = bounds

    def _new_series(self) -> _HistogramSeries:
        return _HistogramSeries(self._lock, self.buckets)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    @property
    def count(self) -> int:
        return self._default().count

    @property
    def sum(self) -> float:
        return self._default().sum

    def signature(self) -> Tuple[str, Tuple[str, ...], Tuple[float, ...]]:  # type: ignore[override]
        return (self.kind, self.labelnames, self.buckets)


class MetricsRegistry:
    """A named, thread-safe collection of instruments.

    Declaration is idempotent: any layer may ``registry.counter(name, ...)``
    and receive the one shared instrument, provided type, label names (and
    histogram buckets) agree with the first declaration.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: Dict[str, _Instrument] = {}

    # -- declaration ------------------------------------------------------------

    def _declare(self, cls, name: str, help: str,
                 labelnames: Sequence[str], **kwargs: Any):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                candidate = cls(name, help, labelnames, **kwargs)
                if existing.signature() != candidate.signature():
                    raise MetricsError(
                        f"metric {name!r} already registered as "
                        f"{existing.signature()}, re-declared as "
                        f"{candidate.signature()}")
                return existing
            instrument = cls(name, help, labelnames, **kwargs)
            if not instrument.labelnames:
                # Label-less instruments expose an explicit 0 sample from
                # declaration on (labelled series appear on first use).
                instrument._default()
            self._metrics[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._declare(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._declare(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
                  ) -> Histogram:
        return self._declare(Histogram, name, help, labelnames,
                             buckets=buckets)

    # -- introspection ----------------------------------------------------------

    def get(self, name: str) -> Optional[_Instrument]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._metrics

    # -- snapshots ---------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable snapshot (see :func:`render_registry_dict`)."""
        with self._lock:
            instruments = list(self._metrics.values())
        snapshot: Dict[str, Any] = {}
        for instrument in instruments:
            entry: Dict[str, Any] = {
                "type": instrument.kind,
                "help": instrument.help,
                "labelnames": list(instrument.labelnames),
                "series": [],
            }
            if isinstance(instrument, Histogram):
                entry["buckets"] = list(instrument.buckets)
            for key, series in instrument.series_items():
                if isinstance(series, _HistogramSeries):
                    with series._lock:
                        entry["series"].append({
                            "labels": list(key),
                            "counts": list(series.counts),
                            "sum": series._sum,
                        })
                else:
                    entry["series"].append({"labels": list(key),
                                            "value": series.value})
            snapshot[instrument.name] = entry
        return snapshot

    def render(self) -> str:
        """This registry in the Prometheus text exposition format."""
        return render_registry_dict(self.to_dict())


class CounterView:
    """What one component did since it started, read off registry counters.

    Registry counters are cumulative across component generations
    (Prometheus semantics: counters never reset within a process), so the
    view snapshots their values at construction and reports deltas — a fresh
    service over a reused session still starts its report at zero.  The
    component counts through :meth:`inc`, so ``/metrics`` and the view are
    fed by the same increments and cannot drift.

    ``counters`` maps a view attribute to a counter (or one labelled series
    of it), or to a tuple of them read as their sum (a sum is counted
    through its parts, not :meth:`inc`).  Attributes and :meth:`to_dict`
    return ints, in declaration order.
    """

    def __init__(self, counters: Mapping[str, Any]):
        self._counters = dict(counters)
        self._base = {name: _read(series)
                      for name, series in self._counters.items()}

    def inc(self, name: str, amount: float = 1.0) -> None:
        self._counters[name].inc(amount)

    def __getattr__(self, name: str) -> int:
        # Only reached for names that are not instance attributes.
        if not name.startswith("_") and name in self._counters:
            return int(_read(self._counters[name]) - self._base[name])
        raise AttributeError(name)

    def to_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self._counters}


def _read(series: Any) -> float:
    """A counter's value, or the sum of a tuple of counters."""
    if isinstance(series, tuple):
        return sum(part.value for part in series)
    return series.value


def _render_labels(labelnames: Sequence[str], values: Sequence[str],
                   extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = [(name, value) for name, value in zip(labelnames, values)]
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(f'{name}="{_escape_label_value(str(value))}"'
                    for name, value in pairs)
    return "{" + body + "}"


def render_registry_dict(snapshot: Mapping[str, Any]) -> str:
    """Render a registry snapshot as Prometheus text."""
    lines: List[str] = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        labelnames = entry.get("labelnames", [])
        if entry.get("help"):
            lines.append(f"# HELP {name} {entry['help']}")
        lines.append(f"# TYPE {name} {entry['type']}")
        for series in entry.get("series", []):
            values = series["labels"]
            if entry["type"] == "histogram":
                cumulative = 0
                bounds = list(entry["buckets"]) + [float("inf")]
                for bound, count in zip(bounds, series["counts"]):
                    cumulative += count
                    labels = _render_labels(labelnames, values,
                                            ("le", _format_number(bound)))
                    lines.append(f"{name}_bucket{labels} {cumulative}")
                labels = _render_labels(labelnames, values)
                lines.append(f"{name}_sum{labels} "
                             f"{_format_number(series['sum'])}")
                lines.append(f"{name}_count{labels} {cumulative}")
            else:
                labels = _render_labels(labelnames, values)
                lines.append(f"{name}{labels} "
                             f"{_format_number(series['value'])}")
    return "\n".join(lines) + ("\n" if lines else "")
