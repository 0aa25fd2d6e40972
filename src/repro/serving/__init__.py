"""``repro.serving`` — scheduling service over the Session facade.

The subsystem layers onto :mod:`repro.api` without changing it:

* :class:`ServiceRunner` — a blocking ``schedule()`` that serves
  response-cache hits on the calling thread and queues misses for one
  batcher thread: a queue drained by ``ScheduleRequest.priority`` (0 most
  urgent, FIFO within one priority) one request at a time through
  ``Session.schedule``, admission control (:class:`AdmissionController`
  sheds load with a typed :class:`AdmissionError`), and coalescing of
  identical in-flight requests by content hash.
* :class:`ServingServer` / :class:`ServingClient` — a stdlib JSON-over-HTTP
  endpoint plus its client, speaking the existing
  ``ScheduleRequest`` / ``ScheduleResponse`` round-trips (load shedding
  surfaces as ``429`` with a ``Retry-After`` hint), a Prometheus-text
  ``/metrics`` scrape backed by :mod:`repro.observability`, end-to-end
  request traces (``/v1/traces``, exportable via the ``trace-dump`` CLI),
  a queue-saturation alert evaluated per request (``/alerts``), and an
  optional structured JSON access log (:class:`JsonAccessLog`).
* persistence is provided by the pluggable cache backends
  (:class:`repro.api.SQLiteCacheBackend`) and the JSON tuning database
  (:meth:`repro.api.TuningDatabase.save`); the ``python -m repro.serving``
  CLI wires them together (``serve`` / ``warm-cache`` / ``trace-dump``).
"""

from .client import ServingClient, ServingError
from .http import JsonAccessLog, ServingServer
from .service import (AdmissionController, AdmissionError, RequestTiming,
                      ServiceConfig, ServiceRunner, request_fingerprint)

__all__ = [
    "ServiceConfig", "ServiceRunner",
    "AdmissionController", "AdmissionError",
    "RequestTiming", "request_fingerprint",
    "ServingServer", "ServingClient", "ServingError", "JsonAccessLog",
]
