"""``repro.observability`` — dependency-free metrics, tracing, and an alert.

One :class:`MetricsRegistry` per :class:`~repro.api.Session` collects typed
:class:`Counter` / :class:`Gauge` / :class:`Histogram` instruments from every
layer: the session and its normalization cache (calls, cache traffic) and
the scheduling service (queue depth, per-priority end-to-end latency,
admission sheds).  The HTTP layer serves it all as a Prometheus-text
``/metrics`` endpoint.  Each family has a named reader (a report field, an
alert rule or the docs catalog in ``docs/observability.md``).

On top of the aggregates, :mod:`repro.observability.tracing` records
per-request span trees (deterministic trace ids, contextvar propagation),
and :mod:`repro.observability.alerts` holds the one alert rule, queue-depth
saturation, evaluated on demand over a registry snapshot.
"""

from .alerts import AlertRule, AlertState, default_alert_rules
from .metrics import (DEFAULT_LATENCY_BUCKETS, Counter, CounterView, Gauge,
                      Histogram, MetricsError, MetricsRegistry,
                      render_registry_dict)
from .tracing import (Span, TraceRecord, Tracer, chrome_trace_document,
                      current_trace_id, span, traces_to_jsonl)

__all__ = [
    "MetricsRegistry", "Counter", "CounterView", "Gauge", "Histogram",
    "MetricsError", "DEFAULT_LATENCY_BUCKETS", "render_registry_dict",
    "Tracer", "Span", "TraceRecord", "span",
    "current_trace_id",
    "chrome_trace_document", "traces_to_jsonl",
    "AlertRule", "AlertState", "default_alert_rules",
]
