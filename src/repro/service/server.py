"""The long-running compilation server.

A :class:`CompileService` wraps the batch pipeline for interactive traffic:

* synchronous single compilations go through a
  :class:`repro.service.batcher.MicroBatcher`, so concurrent requests are
  executed together on one :class:`repro.pipeline.runner.BatchRunner`;
* whole sweeps are submitted asynchronously and polled by job id;
* a persistent disk :class:`repro.pipeline.cache.ResultCache` (pass
  ``cache_dir``) answers repeated traffic without recompiling.

:class:`CompileServer` exposes the service over HTTP (stdlib
:class:`http.server.ThreadingHTTPServer`, JSON bodies):

======  ==================  =================================================
method  path                behaviour
======  ==================  =================================================
POST    ``/compile``        run one job, respond with its result record
POST    ``/batch``          submit a list of jobs, respond with a job id
GET     ``/status/<job>``   progress/results of a submitted batch
GET     ``/healthz``        liveness and identity: status, version, pid, uptime
GET     ``/metrics``        Prometheus exposition of :data:`WORKER_METRICS`
======  ==================  =================================================

Start one from the shell with ``repro serve`` and point ``repro loadgen`` (or
any HTTP client) at it::

    repro serve --port 8765 --cache-dir .repro-service-cache
    curl -s localhost:8765/healthz
    curl -s localhost:8765/metrics
    curl -s -X POST localhost:8765/compile \\
        -d '{"family": "lattice", "size": 12, "kind": "compile"}'
"""

from __future__ import annotations

import json
import os
import queue
import threading
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.pipeline.jobs import BatchJob
from repro.pipeline.runner import BatchRunner, JobOutcome
from repro.service.batcher import MicroBatcher
from repro.service.metrics import WORKER_METRICS, MetricsRegistry, log_event

__all__ = [
    "CompileService",
    "CompileServer",
    "PRIORITY_ADMISSION_FACTORS",
    "ServiceBusyError",
    "ServiceDeadlineError",
    "ServiceRequestError",
    "start_server",
]


class ServiceRequestError(ValueError):
    """A client-side error: malformed payload, unknown family/kind/backend."""


class ServiceBusyError(RuntimeError):
    """Backpressure: the async-batch queue is full (HTTP 429)."""


class ServiceDeadlineError(ServiceBusyError):
    """Admission control: the queue is too deep for the request's deadline.

    A :class:`ServiceBusyError` subclass so it surfaces as HTTP 429 — the
    request was *not* attempted, and retrying after the queue drains is
    exactly the right client behaviour.
    """


#: How much of the deadline each priority class may spend waiting in the
#: queue before admission control rejects the request.  ``None`` means the
#: class bypasses admission control entirely.
PRIORITY_ADMISSION_FACTORS: dict[str, float | None] = {
    "high": None,
    "normal": 1.0,
    "low": 0.5,
}

#: EWMA smoothing for the compile-latency estimate behind admission control.
_LATENCY_EWMA_ALPHA = 0.3


def _outcome_payload(outcome: JobOutcome) -> dict:
    """JSON body describing one job outcome."""
    body = {
        "ok": outcome.ok,
        "label": outcome.job.label,
        "cache_hit": outcome.cache_hit,
        "coalesced": outcome.coalesced,
        "elapsed_seconds": outcome.elapsed_seconds,
        "error": outcome.error,
        "result": outcome.result,
    }
    if outcome.error_kind is not None:
        body["error_kind"] = outcome.error_kind
    return body


class _AsyncBatch:
    """Book-keeping for one asynchronously submitted batch."""

    def __init__(self, job_id: str, num_jobs: int):
        self.job_id = job_id
        self.num_jobs = num_jobs
        self.status = "queued"
        self.submitted_at = time.time()
        self.report = None
        self.error: str | None = None

    def payload(self) -> dict:
        """JSON body for ``/status/<job>``."""
        body = {
            "job_id": self.job_id,
            "status": self.status,
            "num_jobs": self.num_jobs,
            "age_seconds": time.time() - self.submitted_at,
        }
        if self.error is not None:
            body["error"] = self.error
        if self.report is not None:
            body["summary"] = self.report.summary()
            body["outcomes"] = [
                _outcome_payload(outcome) for outcome in self.report.outcomes
            ]
        return body


class CompileService:
    """The server-side state: runner, micro-batcher, async jobs, metrics.

    The service owns a :class:`MetricsRegistry` holding every family of
    :data:`WORKER_METRICS`: its own counters are instruments of it, and the
    totals other objects keep (result cache, subgraph cache, refinement,
    micro-batcher) are read into it at render time
    (:meth:`render_metrics`).

    Parameters
    ----------
    cache_dir : str | None, optional
        Directory for the persistent content-hash result cache; ``None``
        disables caching (every request recompiles).
    max_workers : int, optional
        Process-pool width of the underlying :class:`BatchRunner`; ``1``
        compiles in-process (the safe default for a threaded server).
    batch_window_seconds : float, optional
        Micro-batching window for concurrent ``/compile`` requests.
    max_batch : int, optional
        Maximum jobs per micro-batch.
    subgraph_cache_dir : str | None, optional
        Directory for the *persistent tier* of the isomorphism-keyed
        subgraph compile cache (:mod:`repro.core.compile_cache`).  Exported
        through ``REPRO_SUBGRAPH_CACHE_DIR`` so process-pool workers
        (``max_workers > 1``) inherit it; the in-memory tier is always on
        (per worker process) unless jobs override ``subgraph_cache``.
    background_refine : bool, optional
        Hand the pending (budget-skipped) portfolio rungs of deadline
        requests to the process-wide
        :class:`repro.core.portfolio.BackgroundRefiner`, which compiles
        them off the request path — warming the subgraph compile cache and
        counting refinement improvements.  Disable for strictly
        request-bounded CPU usage.
    compile_timeout_s : float | None, optional
        Default per-request compile watchdog: a ``/compile`` request whose
        outcome is not available within this many wall-clock seconds is
        answered with a structured timeout error (HTTP 504) instead of
        hanging its connection (and, in a fleet, the front end's dispatch
        slot).  Per-request ``compile_timeout_s`` payload fields override
        it; ``None`` disables the watchdog.
    """

    #: Async batches kept around for ``/status`` polling; beyond this cap the
    #: oldest *finished* entries are evicted.
    max_tracked_batches = 256

    #: Maximum queued-or-running async batches; further ``/batch``
    #: submissions are rejected with HTTP 429.  Together with the eviction
    #: cap this bounds the server's memory under steady ``/batch`` traffic.
    max_pending_batches = 32

    def __init__(
        self,
        cache_dir: str | None = None,
        max_workers: int = 1,
        batch_window_seconds: float = 0.02,
        max_batch: int = 32,
        subgraph_cache_dir: str | None = None,
        background_refine: bool = True,
        compile_timeout_s: float | None = None,
    ):
        if compile_timeout_s is not None and compile_timeout_s <= 0:
            raise ValueError(
                f"compile_timeout_s must be > 0, got {compile_timeout_s}"
            )
        self.compile_timeout_s = compile_timeout_s
        self.metrics = MetricsRegistry()
        self._instruments = self.metrics.declare(WORKER_METRICS)
        ins = self._instruments
        self._requests_served = ins["repro_worker_requests_served_total"]
        self._deadline_requests = ins["repro_worker_deadline_requests_total"]
        self._deadline_misses = ins["repro_worker_deadline_misses_total"]
        self._admission_rejections = ins["repro_worker_admission_rejections_total"]
        self._compile_timeouts = ins["repro_worker_compile_timeouts_total"]
        self._fenced_requests = ins["repro_worker_fenced_requests_total"]
        if subgraph_cache_dir is not None:
            from repro.core.compile_cache import CACHE_DIR_ENV, get_process_cache

            # Set the env var first so pool workers spawned later inherit the
            # persistent tier (it intentionally outlives close(): the lazily
            # created pool may spawn workers at any point).  Passing disk_dir
            # explicitly attaches the tier even when earlier compiles in this
            # process already created the shared cache memory-only.
            os.environ[CACHE_DIR_ENV] = str(subgraph_cache_dir)
            get_process_cache(disk_dir=str(subgraph_cache_dir))
        self.runner = BatchRunner(max_workers=max_workers, cache_dir=cache_dir)
        self.batcher = MicroBatcher(
            self.runner, window_seconds=batch_window_seconds, max_batch=max_batch
        )
        self.started_at = time.time()
        self.background_refine = bool(background_refine)
        self._batches: dict[str, _AsyncBatch] = {}
        self._lock = threading.Lock()
        # Epoch fence (HA fleets): the highest X-Repro-Epoch ever seen is
        # the watermark; dispatches from a lower epoch come from a deposed
        # front end and are rejected (HTTP 409) instead of executed.
        self._max_epoch_seen = 0
        # Anytime/deadline serving state: an EWMA of recent compile
        # latencies times the in-flight depth estimates the queue wait that
        # admission control checks against each request's deadline.
        self._inflight_compiles = 0
        self._ewma_compile_seconds: float | None = None
        self._closed = threading.Event()
        # One worker executes async batches sequentially: concurrent /batch
        # submissions queue up instead of spawning unbounded compile threads
        # (synchronous /compile traffic keeps its own micro-batcher lane).
        self._batch_queue: queue.Queue[tuple[_AsyncBatch, list[BatchJob]] | None] = (
            queue.Queue()
        )
        self._batch_thread = threading.Thread(
            target=self._batch_loop, name="repro-batch-worker", daemon=True
        )
        self._batch_thread.start()

    # ------------------------------------------------------------------ #
    # Operations (also usable in-process, without HTTP)
    # ------------------------------------------------------------------ #

    def compile(self, payload: dict) -> dict:
        """Run one job synchronously (micro-batched) and return its record.

        Parameters
        ----------
        payload : dict
            A job description accepted by
            :meth:`repro.pipeline.jobs.BatchJob.from_dict`.

        Returns
        -------
        dict
            The outcome body (``ok``/``cache_hit``/``result``/``error``).

        Raises
        ------
        ServiceDeadlineError
            When the request carries a ``deadline_ms`` that admission
            control judges unmeetable at the current queue depth (HTTP
            429; ``priority: "high"`` bypasses the check).
        """
        job = self._parse_job(payload)
        if job.deadline_ms is not None:
            self._admit_or_reject(job)
        timeout_s = (
            job.compile_timeout_s
            if job.compile_timeout_s is not None
            else self.compile_timeout_s
        )
        with self._lock:
            self._inflight_compiles += 1
        try:
            outcome = self.batcher.submit(job, timeout_seconds=timeout_s)
        finally:
            with self._lock:
                self._inflight_compiles -= 1
        self._requests_served.inc()
        if outcome.error_kind == "timeout":
            self._compile_timeouts.inc()
            log_event(
                "compile_watchdog_timeout",
                level="warning",
                label=job.label,
                timeout_s=timeout_s,
            )
            return _outcome_payload(outcome)
        portfolio = (
            (outcome.result or {}).get("portfolio") or {}
            if outcome.ok
            else {}
        )
        if outcome.ok and not outcome.cache_hit:
            sample = float(outcome.elapsed_seconds)
            with self._lock:
                if self._ewma_compile_seconds is None:
                    self._ewma_compile_seconds = sample
                else:
                    self._ewma_compile_seconds += _LATENCY_EWMA_ALPHA * (
                        sample - self._ewma_compile_seconds
                    )
        if job.deadline_ms is not None:
            self._deadline_requests.inc()
            if portfolio.get("deadline_missed"):
                self._deadline_misses.inc()
        pending = portfolio.get("pending_rungs") or []
        if pending and self.background_refine and not self._closed.is_set():
            from repro.core.portfolio import get_background_refiner

            get_background_refiner().submit_job(
                job, list(pending), portfolio.get("quality")
            )
        return _outcome_payload(outcome)

    def _admit_or_reject(self, job: BatchJob) -> None:
        """Reject a deadline request the queue cannot meet (HTTP 429).

        The wait estimate is deliberately conservative-cheap: EWMA of
        recent uncached compile latencies times the number of in-flight
        compiles.  ``high``-priority requests bypass the check; ``low``
        ones are rejected once the wait exceeds half their deadline.
        """
        factor = PRIORITY_ADMISSION_FACTORS[job.priority]
        if factor is None:
            return
        with self._lock:
            ewma = self._ewma_compile_seconds
            queued = self._inflight_compiles
        if ewma is None or queued == 0:
            return
        estimated_wait_ms = queued * ewma * 1000.0
        if estimated_wait_ms > float(job.deadline_ms) * factor:
            self._admission_rejections.inc()
            raise ServiceDeadlineError(
                f"estimated queue wait {estimated_wait_ms:.0f} ms exceeds "
                f"deadline_ms={job.deadline_ms:g} for priority "
                f"{job.priority!r}; retry later"
            )

    def submit_batch(self, payload: dict) -> dict:
        """Start a batch in the background and return its job id.

        Parameters
        ----------
        payload : dict
            ``{"jobs": [<job payload>, ...]}``.

        Returns
        -------
        dict
            ``{"job_id": ..., "num_jobs": ...}``; poll with :meth:`status`.

        Raises
        ------
        ServiceBusyError
            When :attr:`max_pending_batches` submissions are already queued
            or running (surfaces as HTTP 429).
        """
        if not isinstance(payload, dict) or "jobs" not in payload:
            raise ServiceRequestError("batch payload needs a 'jobs' list")
        raw_jobs = payload["jobs"]
        if not isinstance(raw_jobs, list) or not raw_jobs:
            raise ServiceRequestError("'jobs' must be a non-empty list")
        jobs = [self._parse_job(entry) for entry in raw_jobs]
        job_id = uuid.uuid4().hex[:12]
        batch = _AsyncBatch(job_id, len(jobs))
        with self._lock:
            pending = sum(
                1
                for tracked in self._batches.values()
                if tracked.status in ("queued", "running")
            )
            if pending >= self.max_pending_batches:
                raise ServiceBusyError(
                    f"{pending} batches already queued or running; retry later"
                )
            self._batches[job_id] = batch
            self._evict_finished_batches()
        self._batch_queue.put((batch, jobs))
        return {"job_id": job_id, "num_jobs": len(jobs)}

    def status(self, job_id: str) -> dict | None:
        """Status body for an async batch, or ``None`` if the id is unknown."""
        with self._lock:
            batch = self._batches.get(job_id)
        return batch.payload() if batch is not None else None

    def note_epoch(self, epoch: int) -> bool:
        """Check a dispatch's leadership epoch against the fence watermark.

        Returns True when the dispatch may proceed (and raises the
        watermark); False when it comes from a deposed front end whose
        epoch is below the highest ever seen.
        """
        with self._lock:
            if epoch < self._max_epoch_seen:
                self._fenced_requests.inc()
                return False
            self._max_epoch_seen = epoch
            return True

    def healthz(self) -> dict:
        """Liveness and identity: status, version, pid, uptime and epoch.

        ``epoch`` is the fence watermark, the highest leadership epoch any
        dispatch carried.  Counters live in :meth:`render_metrics`.
        """
        import repro

        return {
            "status": "ok",
            "version": repro.__version__,
            "pid": os.getpid(),
            "uptime_seconds": time.time() - self.started_at,
            "epoch": self._max_epoch_seen,
        }

    def render_metrics(self) -> str:
        """This worker's Prometheus exposition (``GET /metrics``).

        The subgraph-cache families report *this process's* tier of the
        isomorphism-keyed compile cache; with ``max_workers > 1`` the pool
        workers keep their own tiers (sharing only the disk directory).
        """
        from repro.core.compile_cache import peek_process_cache
        from repro.core.portfolio import refinement_stats

        result_cache = self.runner.cache.stats() if self.runner.cache is not None else {}
        subgraph_cache = peek_process_cache()
        subgraph = subgraph_cache.stats.as_dict() if subgraph_cache is not None else {}
        disk_tiers = [result_cache]
        if subgraph_cache is not None:
            disk_tiers.append(subgraph_cache.disk_stats() or {})
        breakers = [tier["breaker"] for tier in disk_tiers if "breaker" in tier]
        batcher = self.batcher.stats
        totals = {
            "microbatches": batcher.batches,
            "microbatched_requests": batcher.requests,
            "result_cache_hits": result_cache.get("hits", 0),
            "result_cache_misses": result_cache.get("misses", 0),
            "subgraph_cache_hits": subgraph.get("hits", 0),
            "subgraph_cache_misses": subgraph.get("misses", 0),
            "subgraph_cache_stores": subgraph.get("stores", 0),
            "refinement_improvements": refinement_stats().improvements,
            "cache_corrupt_entries": sum(tier.get("corrupt_entries", 0) for tier in disk_tiers),
            "cache_disk_errors": sum(tier.get("disk_errors", 0) for tier in disk_tiers),
            "disk_breaker_opens": sum(breaker["opens"] for breaker in breakers),
        }
        for name, value in totals.items():
            self._instruments[f"repro_worker_{name}_total"].set_total(value)
        self._instruments["repro_worker_disk_breaker_open"].set(
            float(any(breaker["state"] == "open" for breaker in breakers))
        )
        return self.metrics.render()

    def close(self) -> None:
        """Shut the micro-batcher and the batch worker down (idempotent)."""
        if self._closed.is_set():
            return
        self._closed.set()
        self.batcher.close()
        self._batch_queue.put(None)
        self._batch_thread.join(timeout=5.0)
        self.runner.close()
        # Fail anything still queued so /status never reports it running.
        while True:
            try:
                item = self._batch_queue.get_nowait()
            except queue.Empty:
                break
            if item is not None:
                item[0].error = "service shut down"
                item[0].status = "error"

    # ------------------------------------------------------------------ #

    @staticmethod
    def _parse_job(payload: dict) -> BatchJob:
        try:
            return BatchJob.from_dict(payload)
        except (ValueError, TypeError) as exc:
            raise ServiceRequestError(str(exc)) from exc

    def _batch_loop(self) -> None:
        # The closed-flag check (not just the sentinel) matters: if close()
        # times out waiting on a long batch and drains the queue — sentinel
        # included — the worker must still exit when that batch finishes
        # instead of blocking on an empty queue forever.
        while not self._closed.is_set():
            item = self._batch_queue.get()
            if item is None:
                return
            self._run_batch(*item)

    def _run_batch(self, batch: _AsyncBatch, jobs: list[BatchJob]) -> None:
        batch.status = "running"
        try:
            report = self.runner.run(jobs)
        except Exception as exc:  # noqa: BLE001 - reported through /status
            batch.error = f"{type(exc).__name__}: {exc}"
            batch.status = "error"
            return
        batch.report = report
        batch.status = "done"
        self._requests_served.inc(len(jobs))

    def _evict_finished_batches(self) -> None:
        """Drop the oldest finished batches beyond the cap (lock held)."""
        overflow = len(self._batches) - self.max_tracked_batches
        if overflow <= 0:
            return
        for job_id in [
            job_id
            for job_id, batch in self._batches.items()  # insertion order: oldest first
            if batch.status in ("done", "error")
        ][:overflow]:
            del self._batches[job_id]


#: Content type of a Prometheus text exposition (``GET /metrics``).
EXPOSITION_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class JSONRequestHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 plumbing shared by the worker and fleet front-end handlers."""

    protocol_version = "HTTP/1.1"

    def _read_json(self) -> dict:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError as exc:
            # Unknown body length: the connection cannot be re-synced.
            self.close_connection = True
            raise ServiceRequestError("bad Content-Length header") from exc
        if length <= 0:
            raise ServiceRequestError("request body must be a JSON object")
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ServiceRequestError(f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise ServiceRequestError("request body must be a JSON object")
        return payload

    def _send(self, status: int, body: dict | str, request_id: str | None = None) -> None:
        """Send a JSON body, or a text exposition when ``body`` is a string."""
        if isinstance(body, str):
            data, content_type = body.encode("utf-8"), EXPOSITION_CONTENT_TYPE
        else:
            data, content_type = json.dumps(body).encode("utf-8"), "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        if request_id is not None:
            self.send_header("X-Request-Id", request_id)
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Log to stderr only when the server was started verbose."""
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)


class _Handler(JSONRequestHandler):
    """Route HTTP requests to the :class:`CompileService`."""

    server: "CompileServer"

    # ------------------------------------------------------------------ #

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """Serve ``/healthz``, ``/metrics`` and ``/status/<job>``."""
        self.server.track_request(1)
        try:
            if self.path == "/healthz":
                self._send(200, self.server.service.healthz())
                return
            if self.path == "/metrics":
                self._send(200, self.server.service.render_metrics())
                return
            if self.path.startswith("/status/"):
                job_id = self.path[len("/status/"):]
                body = self.server.service.status(job_id)
                if body is None:
                    self._send(404, {"error": f"unknown job id {job_id!r}"})
                else:
                    self._send(200, body)
                return
            self._send(404, {"error": f"unknown path {self.path!r}"})
        finally:
            self.server.track_request(-1)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        """Serve ``/compile`` and ``/batch``."""
        self.server.track_request(1)
        try:
            self._do_post()
        finally:
            self.server.track_request(-1)

    def _do_post(self) -> None:
        # Read the body before routing: with HTTP/1.1 keep-alive an unread
        # body would be parsed as the next request line, desyncing the
        # connection for every response, 404s included.
        try:
            payload = self._read_json()
        except ServiceRequestError as exc:
            self._send(400, {"error": str(exc)})
            return
        if self.path not in ("/compile", "/batch"):
            self._send(404, {"error": f"unknown path {self.path!r}"})
            return
        epoch_header = self.headers.get("X-Repro-Epoch")
        if epoch_header is not None:
            try:
                epoch = int(epoch_header)
            except ValueError:
                self._send(400, {"error": f"bad X-Repro-Epoch {epoch_header!r}"})
                return
            if not self.server.service.note_epoch(epoch):
                self._send(409, {
                    "error": f"stale leadership epoch {epoch}; dispatch fenced",
                    "stale_epoch": True,
                    "epoch": epoch,
                })
                return
        try:
            if self.path == "/compile":
                body = self.server.service.compile(payload)
                if body["ok"]:
                    status = 200
                elif body.get("error_kind") == "timeout":
                    # Watchdog expiry: a structured, terminal answer — the
                    # fleet front end relays it instead of re-dispatching
                    # the pathological job to the next worker.
                    status = 504
                else:
                    status = 500
                self._send(status, body)
            else:
                self._send(202, self.server.service.submit_batch(payload))
        except ServiceRequestError as exc:
            self._send(400, {"error": str(exc)})
        except ServiceBusyError as exc:
            self._send(429, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - never kill the server thread
            self._send(500, {"error": f"{type(exc).__name__}: {exc}"})


class CompileServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to one :class:`CompileService`.

    Parameters
    ----------
    address : tuple[str, int]
        ``(host, port)`` to bind; port ``0`` picks a free port (see
        ``server_address`` for the chosen one).
    service : CompileService
        The service instance requests are routed to.
    verbose : bool, optional
        Log one line per request to stderr.
    """

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: CompileService,
        verbose: bool = False,
    ):
        super().__init__(address, _Handler)
        self.service = service
        self.verbose = verbose
        self._active_requests = 0
        self._active_lock = threading.Lock()

    def track_request(self, delta: int) -> None:
        """Adjust the in-flight request count (called by the handler)."""
        with self._active_lock:
            self._active_requests += delta

    @property
    def active_requests(self) -> int:
        """Requests currently being handled."""
        with self._active_lock:
            return self._active_requests

    def shutdown(self) -> None:
        """Stop serving and shut the service down."""
        super().shutdown()
        self.service.close()

    def drain(self, timeout: float = 30.0) -> bool:
        """SIGTERM semantics: stop accepting, flush in-flight, close.

        Stops the accept loop, waits up to ``timeout`` seconds for every
        in-flight request to finish writing its response, then shuts the
        service down.  Callable from any thread *except* a signal handler
        running on the serving thread (spawn a helper thread there).

        Returns
        -------
        bool
            True when no request was still in flight at the end.
        """
        ThreadingHTTPServer.shutdown(self)  # stop accepting; keep service up
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.active_requests == 0:
                break
            time.sleep(0.02)
        drained = self.active_requests == 0
        self.service.close()
        return drained


def start_server(
    host: str = "127.0.0.1",
    port: int = 0,
    cache_dir: str | None = None,
    max_workers: int = 1,
    batch_window_seconds: float = 0.02,
    max_batch: int = 32,
    verbose: bool = False,
    subgraph_cache_dir: str | None = None,
    background_refine: bool = True,
    compile_timeout_s: float | None = None,
) -> tuple[CompileServer, threading.Thread]:
    """Build a service and serve it on a daemon thread (for tests/loadgen).

    Parameters
    ----------
    host, port : str, int
        Bind address; port ``0`` picks a free port.
    cache_dir : str | None
        Persistent result-cache directory (``None`` disables caching).
    max_workers, batch_window_seconds, max_batch, subgraph_cache_dir,
    background_refine, compile_timeout_s
        Forwarded to :class:`CompileService`.
    verbose : bool
        Log requests to stderr.

    Returns
    -------
    tuple[CompileServer, threading.Thread]
        The running server (query ``server.server_address`` for the bound
        port) and its serving thread; call ``server.shutdown()`` when done.
    """
    service = CompileService(
        cache_dir=cache_dir,
        max_workers=max_workers,
        batch_window_seconds=batch_window_seconds,
        max_batch=max_batch,
        subgraph_cache_dir=subgraph_cache_dir,
        background_refine=background_refine,
        compile_timeout_s=compile_timeout_s,
    )
    server = CompileServer((host, port), service, verbose=verbose)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    thread.start()
    return server, thread
