"""The compilation service: serve graph-state compilations over HTTP.

This subsystem turns the batch pipeline (:mod:`repro.pipeline`) into a
long-running server for interactive and high-volume traffic:

* :mod:`repro.service.server` — :class:`CompileService` (micro-batched
  execution, async batches, its own metrics registry) and
  :class:`CompileServer` (stdlib ``ThreadingHTTPServer`` exposing
  ``/compile``, ``/batch``, ``/status/<job>`` and ``/healthz`` with JSON
  bodies, and ``/metrics``);
* :mod:`repro.service.batcher` — the :class:`MicroBatcher` that coalesces
  concurrent requests into single :class:`repro.pipeline.runner.BatchRunner`
  batches;
* :mod:`repro.service.client` — :class:`ServiceClient`, a dependency-free
  ``urllib`` client used by tests and the load generator;
* :mod:`repro.service.loadgen` — the closed-loop load generator behind
  ``repro loadgen`` (throughput, p50/p95/p99 latency, cache-hit rate), with
  ``kill_worker_after`` fault injection against a fleet;
* :mod:`repro.service.fleet` — the supervised multi-process compile fleet
  behind ``repro serve --workers N``: content-hash (rendezvous) routing,
  heartbeat health checks with exponential-backoff restarts, a persistent
  pending-queue journal with crash replay, and SIGTERM graceful drain;
* :mod:`repro.service.metrics` — the Prometheus ``/metrics`` instruments,
  the worker and fleet family tables, the exposition parser behind the
  validator CI scrapes against and the front end's per-worker relay, and
  structured JSON logs.

Everything is stdlib-only on top of the package's existing dependencies; the
CLI entry points are ``repro serve`` and ``repro loadgen``.
"""

from repro.service.batcher import BatcherStats, MicroBatcher
from repro.service.client import ServiceClient, ServiceError
from repro.service.fleet import (
    FleetServer,
    FleetSupervisor,
    WorkerProcess,
    rendezvous_order,
    start_fleet,
)
from repro.service.metrics import (
    FLEET_METRICS,
    MetricsRegistry,
    log_event,
    validate_exposition,
)
from repro.service.loadgen import LoadReport, percentile, run_loadgen, workload_payloads
from repro.service.server import (
    CompileServer,
    CompileService,
    ServiceBusyError,
    ServiceRequestError,
    start_server,
)

__all__ = [
    "BatcherStats",
    "MicroBatcher",
    "FleetServer",
    "FleetSupervisor",
    "WorkerProcess",
    "rendezvous_order",
    "start_fleet",
    "FLEET_METRICS",
    "MetricsRegistry",
    "log_event",
    "validate_exposition",
    "ServiceClient",
    "ServiceError",
    "LoadReport",
    "percentile",
    "run_loadgen",
    "workload_payloads",
    "CompileServer",
    "CompileService",
    "ServiceBusyError",
    "ServiceRequestError",
    "start_server",
]
