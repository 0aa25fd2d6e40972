"""Declarative alert rules evaluated over metrics-registry snapshots.

Three rule kinds cover the serving stack's ops story:

``threshold``
    Compare the latest snapshot value of a metric (gauges, counters)
    against a fixed threshold: ``repro_service_queue_depth >= 200``.

``rate``
    Per-second increase of a counter over a trailing window:
    ``rate(repro_admission_shed_total[60s]) > 0.5``.

``slo-burn-rate``
    Multi-window latency-SLO burn rate in the SRE style: the error
    budget burn factor (``error_fraction / (1 - objective)``) must
    exceed the threshold over BOTH a long and a short window before the
    alert fires — the long window gives significance, the short window
    makes the alert reset quickly once the spike passes.

The evaluator keeps a bounded history of ``(timestamp, snapshot)``
samples so the windowed kinds work from plain registry snapshots, which
also makes the rules unit-testable with synthetic streams via
:meth:`AlertEvaluator.ingest`.
"""

import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .metrics import CounterView, MetricsRegistry

__all__ = [
    "AlertEvaluator",
    "AlertMonitor",
    "AlertRule",
    "AlertState",
    "default_alert_rules",
]


_OPS: Dict[str, Callable[[float, float], bool]] = {
    ">": lambda v, t: v > t,
    ">=": lambda v, t: v >= t,
    "<": lambda v, t: v < t,
    "<=": lambda v, t: v <= t,
}


_KINDS = ("threshold", "rate", "slo-burn-rate")


@dataclass(frozen=True)
class AlertRule:
    """One declarative alert over registry snapshots."""

    name: str
    kind: str  # "threshold" | "rate" | "slo-burn-rate"
    metric: str
    labels: Mapping[str, str] = field(default_factory=dict)
    op: str = ">"
    threshold: float = 0.0
    window_s: float = 300.0
    short_window_s: float = 60.0
    objective: float = 0.95
    latency_slo_s: float = 0.5
    severity: str = "page"
    description: str = ""

    def __post_init__(self) -> None:
        # A misspelt kind would never fire, an unknown op compare as ">".
        for name, value, known in (("kind", self.kind, _KINDS),
                                   ("op", self.op, tuple(_OPS))):
            if value not in known:
                raise ValueError(f"unknown alert {name} {value!r}; known "
                                 f"{name}s: {', '.join(known)}")

    def to_dict(self) -> Dict[str, Any]:
        payload = asdict(self)
        payload["labels"] = dict(self.labels)
        return payload


@dataclass
class AlertState:
    """The evaluated state of one rule at one instant."""

    name: str
    severity: str
    kind: str
    firing: bool
    value: Optional[float]
    threshold: float
    description: str
    since_s: Optional[float] = None
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "severity": self.severity,
            "kind": self.kind,
            "firing": self.firing,
            "value": self.value,
            "threshold": self.threshold,
            "description": self.description,
            "since_s": self.since_s,
            "detail": dict(self.detail),
        }


def _series_labels(metric: Mapping[str, Any],
                   series: Mapping[str, Any]) -> Dict[str, str]:
    return dict(zip(metric.get("labelnames", []), series.get("labels", [])))


def metric_value(snapshot: Mapping[str, Any], metric: str,
                 where: Optional[Mapping[str, str]] = None) -> Optional[float]:
    """Sum of all series values of ``metric`` matching the ``where`` labels."""
    entry = snapshot.get(metric)
    if entry is None:
        return None
    total, matched = 0.0, False
    for series in entry.get("series", []):
        labels = _series_labels(entry, series)
        if where and any(labels.get(k) != v for k, v in where.items()):
            continue
        matched = True
        if "value" in series:
            total += series["value"]
        elif "counts" in series:
            total += sum(series["counts"])
    return total if matched else None


def histogram_window(snapshot: Mapping[str, Any], metric: str,
                     where: Optional[Mapping[str, str]] = None
                     ) -> Optional[Dict[str, Any]]:
    """Summed histogram counts across matching series, plus the bounds."""
    entry = snapshot.get(metric)
    if entry is None or entry.get("type") != "histogram":
        return None
    bounds = entry.get("buckets", [])
    counts: Optional[List[float]] = None
    total_sum = 0.0
    for series in entry.get("series", []):
        labels = _series_labels(entry, series)
        if where and any(labels.get(k) != v for k, v in where.items()):
            continue
        series_counts = series.get("counts")
        if series_counts is None:
            continue
        if counts is None:
            counts = [0.0] * len(series_counts)
        for i, c in enumerate(series_counts):
            counts[i] += c
        total_sum += series.get("sum", 0.0)
    if counts is None:
        return None
    return {"bounds": list(bounds), "counts": counts, "sum": total_sum}


def _reference(samples: Sequence[Tuple[float, Mapping[str, Any]]],
               cutoff: float) -> Optional[Tuple[float, Mapping[str, Any]]]:
    """Newest sample at or before ``cutoff``; oldest as a fallback."""
    reference = None
    for ts, snapshot in samples:
        if ts <= cutoff:
            reference = (ts, snapshot)
        else:
            break
    if reference is None and len(samples) >= 2:
        reference = samples[0]
    return reference


class AlertEvaluator:
    """Evaluates rules over a bounded history of registry snapshots."""

    def __init__(self, rules: Sequence[AlertRule],
                 snapshot_fn: Optional[Callable[[], Mapping[str, Any]]] = None,
                 history_s: float = 3900.0, max_samples: int = 512,
                 metrics: Optional[MetricsRegistry] = None):
        self.rules = list(rules)
        self.snapshot_fn = snapshot_fn
        self.history_s = history_s
        self.max_samples = max_samples
        self._lock = threading.RLock()
        self._samples: List[Tuple[float, Mapping[str, Any]]] = []
        self._since: Dict[str, float] = {}
        self._states: List[AlertState] = []
        # Without a registry the evaluator counts into a private one.
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._dropped = CounterView({"clock_skew": metrics.counter(
            "repro_alert_clock_skew_total",
            "Alert snapshots dropped because their timestamp ran "
            "backwards (wall-clock step, e.g. NTP).")})

    @property
    def clock_skew_dropped(self) -> int:
        """How many snapshots this evaluator dropped for running backwards
        in time (read off ``repro_alert_clock_skew_total``)."""
        return self._dropped.clock_skew

    # -- sampling ---------------------------------------------------------

    def ingest(self, snapshot: Mapping[str, Any],
               ts: Optional[float] = None) -> None:
        """Append a snapshot (``ts`` defaults to now).

        Timestamps must be monotonic — the windowed rule kinds subtract
        counters across samples, so a wall-clock step backwards (NTP)
        would corrupt burn-rate windows.  Non-monotonic samples are
        dropped and counted on ``repro_alert_clock_skew_total``
        (:attr:`clock_skew_dropped`)."""
        ts = time.time() if ts is None else ts
        with self._lock:
            if self._samples and ts < self._samples[-1][0]:
                self._dropped.inc("clock_skew")
                return
            self._samples.append((ts, snapshot))
            if len(self._samples) > self.max_samples:
                del self._samples[:len(self._samples) - self.max_samples]
            horizon = ts - self.history_s
            while len(self._samples) > 2 and self._samples[0][0] < horizon:
                del self._samples[0]

    def sample(self, now: Optional[float] = None) -> None:
        """Pull one snapshot from ``snapshot_fn`` into the history."""
        if self.snapshot_fn is None:
            return
        self.ingest(self.snapshot_fn(), ts=now)

    # -- evaluation -------------------------------------------------------

    def evaluate(self, now: Optional[float] = None) -> List[AlertState]:
        with self._lock:
            samples = list(self._samples)
        if now is None:
            now = samples[-1][0] if samples else time.time()
        states = [self._evaluate_rule(rule, samples, now)
                  for rule in self.rules]
        with self._lock:
            for state in states:
                if state.firing:
                    state.since_s = self._since.setdefault(state.name, now)
                else:
                    self._since.pop(state.name, None)
            self._states = states
        return states

    def sample_and_evaluate(self,
                            now: Optional[float] = None) -> List[AlertState]:
        self.sample(now=now)
        return self.evaluate(now=now)

    def states(self) -> List[AlertState]:
        """The most recently evaluated states (no re-evaluation)."""
        with self._lock:
            return list(self._states)

    def _evaluate_rule(self, rule: AlertRule,
                       samples: Sequence[Tuple[float, Mapping[str, Any]]],
                       now: float) -> AlertState:
        value: Optional[float] = None
        detail: Dict[str, Any] = {}
        firing = False
        compare = _OPS[rule.op]
        if samples:
            latest_ts, latest = samples[-1]
            if rule.kind == "threshold":
                value = metric_value(latest, rule.metric, rule.labels)
                firing = value is not None and compare(value, rule.threshold)
            elif rule.kind == "rate":
                value = self._window_rate(rule, samples, now, rule.window_s)
                detail["window_s"] = rule.window_s
                firing = value is not None and compare(value, rule.threshold)
            elif rule.kind == "slo-burn-rate":
                long_burn = self._window_burn(rule, samples, now,
                                              rule.window_s)
                short_burn = self._window_burn(rule, samples, now,
                                               rule.short_window_s)
                detail.update(long_burn=long_burn, short_burn=short_burn,
                              window_s=rule.window_s,
                              short_window_s=rule.short_window_s,
                              objective=rule.objective,
                              latency_slo_s=rule.latency_slo_s)
                value = long_burn
                firing = (long_burn is not None and short_burn is not None
                          and long_burn >= rule.threshold
                          and short_burn >= rule.threshold)
        return AlertState(
            name=rule.name, severity=rule.severity, kind=rule.kind,
            firing=firing, value=value, threshold=rule.threshold,
            description=rule.description, detail=detail)

    def _window_rate(self, rule: AlertRule,
                     samples: Sequence[Tuple[float, Mapping[str, Any]]],
                     now: float, window_s: float) -> Optional[float]:
        latest_ts, latest = samples[-1]
        reference = _reference(samples, now - window_s)
        if reference is None:
            return None
        ref_ts, ref_snapshot = reference
        elapsed = latest_ts - ref_ts
        if elapsed <= 0:
            return None
        current = metric_value(latest, rule.metric, rule.labels)
        previous = metric_value(ref_snapshot, rule.metric, rule.labels)
        if current is None:
            return None
        return max(0.0, current - (previous or 0.0)) / elapsed

    def _window_burn(self, rule: AlertRule,
                     samples: Sequence[Tuple[float, Mapping[str, Any]]],
                     now: float, window_s: float) -> Optional[float]:
        """Error-budget burn factor over the trailing ``window_s``.

        A request is "good" when it landed in a latency bucket whose upper
        bound is within the SLO target.  Returns ``None`` when the window
        saw no traffic (no alert without evidence).
        """
        latest = histogram_window(samples[-1][1], rule.metric, rule.labels)
        if latest is None:
            return None
        reference = _reference(samples, now - window_s)
        ref_hist = None
        if reference is not None:
            ref_hist = histogram_window(reference[1], rule.metric,
                                        rule.labels)
        bounds = latest["bounds"]
        good_bucket_count = sum(
            1 for bound in bounds if bound <= rule.latency_slo_s)
        deltas = list(latest["counts"])
        if ref_hist is not None and len(ref_hist["counts"]) == len(deltas):
            deltas = [max(0.0, cur - prev) for cur, prev
                      in zip(deltas, ref_hist["counts"])]
        total = sum(deltas)
        if total <= 0:
            return None
        good = sum(deltas[:good_bucket_count])
        error_fraction = max(0.0, 1.0 - good / total)
        budget = max(1e-9, 1.0 - rule.objective)
        return error_fraction / budget


class AlertMonitor:
    """Daemon thread that samples + evaluates on an interval."""

    def __init__(self, evaluator: AlertEvaluator, interval_s: float = 5.0):
        if not interval_s > 0:  # 0 would sample in a busy loop
            raise ValueError(f"interval_s must be > 0, got {interval_s!r}")
        self.evaluator = evaluator
        self.interval_s = interval_s
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-alert-monitor", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.evaluator.sample_and_evaluate()
            except Exception:  # noqa: BLE001 - monitoring must not die
                pass


def default_alert_rules(max_queue_depth: int = 256,
                        latency_slo_s: float = 0.25,
                        objective: float = 0.95) -> List[AlertRule]:
    """The serving stack's stock rules (ROADMAP ops story)."""
    rules = [
        AlertRule(
            name="admission-shed-rate",
            kind="rate",
            metric="repro_admission_shed_total",
            threshold=0.5,
            window_s=60.0,
            severity="page",
            description="Admission control is shedding more than 0.5 req/s "
                        "over the last minute.",
        ),
        AlertRule(
            name="latency-slo-fast-burn",
            kind="slo-burn-rate",
            metric="repro_request_latency_seconds",
            threshold=14.4,
            window_s=300.0,
            short_window_s=60.0,
            objective=objective,
            latency_slo_s=latency_slo_s,
            severity="page",
            description="Latency SLO error budget burning >= 14.4x over "
                        "5m and 1m windows.",
        ),
        AlertRule(
            name="latency-slo-slow-burn",
            kind="slo-burn-rate",
            metric="repro_request_latency_seconds",
            threshold=6.0,
            window_s=3600.0,
            short_window_s=300.0,
            objective=objective,
            latency_slo_s=latency_slo_s,
            severity="ticket",
            description="Latency SLO error budget burning >= 6x over "
                        "1h and 5m windows.",
        ),
    ]
    if max_queue_depth > 0:
        rules.insert(1, AlertRule(
            name="queue-depth-saturation",
            kind="threshold",
            metric="repro_service_queue_depth",
            op=">=",
            threshold=0.8 * max_queue_depth,
            severity="page",
            description="Service queue depth is at >= 80% of "
                        f"max_queue_depth={max_queue_depth}.",
        ))
    return rules
