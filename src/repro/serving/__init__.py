"""``repro.serving`` — async scheduling service over the Session facade.

The subsystem layers onto :mod:`repro.api` without changing it:

* :class:`SchedulingService` / :class:`ServiceRunner` — asyncio request
  queue ordered by a pluggable :class:`QueuePolicy` (``strict-priority``
  by default — ``ScheduleRequest.priority``, 0 most urgent — plus
  ``weighted-fair``, ``edf``, and ``aging``; register more with
  :func:`register_policy`), admission control (:class:`AdmissionController`
  sheds load with a typed :class:`AdmissionError`), micro-batching over
  ``Session.schedule_batch``, coalescing of identical in-flight requests
  by content hash, and an optional :class:`AdaptiveBatcher` closing the
  loop from live latency histograms onto the batching/admission knobs.
* :class:`WorkerPool` / :class:`WorkerConfig` — a multi-process worker pool
  where every worker holds its own Session over one shared SQLite cache
  file and one tuning-database shard; the service scatters its
  micro-batches over the pool when one is attached (``serve --workers N``).
* :class:`ServingServer` / :class:`ServingClient` — a stdlib JSON-over-HTTP
  endpoint plus its client, speaking the existing
  ``ScheduleRequest`` / ``ScheduleResponse`` round-trips (load shedding
  surfaces as ``429`` with a ``Retry-After`` hint), a Prometheus-text
  ``/metrics`` scrape backed by :mod:`repro.observability`, end-to-end
  request traces (``/v1/traces``, exportable via the ``trace-dump`` CLI),
  SLO alert rules (``/alerts``), an optional push exporter for unattended
  nodes (``--push-url``), and an optional structured JSON access log
  (:class:`JsonAccessLog`).
* persistence is provided by the pluggable cache backends
  (:class:`repro.api.SQLiteCacheBackend`) and the sharded tuning database
  (:class:`repro.api.ShardedTuningDatabase`); the ``python -m repro.serving``
  CLI wires them together (``serve`` / ``warm-cache`` / ``db-shard``).
"""

from .client import ServingClient, ServingError
from .http import JsonAccessLog, ServingServer
from .policy import (AdaptiveBatcher, PolicyError, QueuePolicy, create_policy,
                     policy_names, register_policy)
from .service import (AdmissionController, AdmissionError, RequestTiming,
                      SchedulingService, ServiceConfig, ServiceRunner,
                      request_fingerprint)
from .workers import (PoolStats, WorkerConfig, WorkerError, WorkerPool,
                      merge_worker_reports)

__all__ = [
    "SchedulingService", "ServiceConfig", "ServiceRunner",
    "AdmissionController", "AdmissionError",
    "RequestTiming", "request_fingerprint",
    "QueuePolicy", "PolicyError", "register_policy", "policy_names",
    "create_policy", "AdaptiveBatcher",
    "WorkerPool", "WorkerConfig", "WorkerError", "PoolStats",
    "merge_worker_reports",
    "ServingServer", "ServingClient", "ServingError", "JsonAccessLog",
]
