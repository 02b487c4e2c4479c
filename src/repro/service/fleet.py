"""A supervised multi-process compile fleet with an ops surface.

``repro serve --workers N`` (N > 1) runs this module instead of a single
:class:`repro.service.server.CompileServer`:

* a :class:`FleetSupervisor` spawns N compile-worker subprocesses — each an
  ordinary ``repro serve`` single instance on its own port, sharing the
  disk result cache and the persistent subgraph-cache tier — and keeps them
  alive with heartbeat health checks and exponential-backoff restarts;
* a :class:`FleetServer` front end routes ``POST /compile`` by job content
  hash (rendezvous hashing, so identical jobs always land on the same
  worker's warm caches), re-dispatches to the next-ranked worker when one
  dies mid-request, and exposes the ops surface: ``GET /metrics``
  (Prometheus text format: the front end's own families plus every
  worker's exposition relayed with a ``worker`` label), ``GET /healthz``
  (fleet status incl. worker pids/states), structured JSON logs with
  request ids;
* every accepted ``/compile`` request is journaled to a persistent
  pending-queue (:class:`repro.pipeline.jobs.PendingJournal`) before
  dispatch and marked done after, so a crash mid-batch loses no accepted
  work — the next fleet start replays unfinished entries into the shared
  result cache;
* ``SIGTERM`` triggers a graceful drain: stop accepting, flush in-flight
  requests, stop the workers, exit 0.

Async ``POST /batch`` submissions are forwarded to one hash-routed worker
and polled through the front end (``job_id`` is prefixed with the worker
index); they are intentionally *not* journaled — ``/compile`` is the
durable path.

The supervision design follows the proactor idiom (message-driven
supervision, per-link retry state machines with exponential backoff,
persistent event queue) rather than an in-process thread pool: workers are
OS processes, so one crashing compile cannot take the fleet down, and the
kernel's process lifecycle is the source of truth for liveness.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from http.server import ThreadingHTTPServer
from pathlib import Path
from typing import Sequence

from repro.pipeline.cache import DiskCircuitBreaker
from repro.pipeline.jobs import (
    JOURNAL_SCHEMA_VERSION,
    BatchJob,
    JournalEntry,
    PendingJournal,
    StaleEpochError,
)
from repro.service.client import ServiceClient, ServiceError
from repro.service.metrics import (
    FLEET_METRICS,
    MetricsRegistry,
    log_event,
    relabel_expositions,
)
from repro.service.replication import LeaseLostError, ReplicationFencedError
from repro.service.server import JSONRequestHandler
from repro.utils.faults import FaultPoint

__all__ = [
    "WorkerProcess",
    "FleetSupervisor",
    "FleetServer",
    "FleetDrainingError",
    "NoHealthyWorkerError",
    "PoisonedJobError",
    "rendezvous_order",
    "free_port",
    "start_fleet",
    "install_sigterm_drain",
]

#: Injection points of the fleet control plane (:mod:`repro.utils.faults`).
_FAULT_SPAWN = FaultPoint("worker.spawn")
_FAULT_FORWARD = FaultPoint("dispatch.forward")
_FAULT_HEARTBEAT = FaultPoint("heartbeat.probe")

#: Worker lifecycle states (a small link-state machine per worker).
STARTING = "starting"
HEALTHY = "healthy"
UNHEALTHY = "unhealthy"
RESTARTING = "restarting"
STOPPED = "stopped"


class FleetDrainingError(RuntimeError):
    """The front end is draining and accepts no new work (HTTP 503)."""


class NoHealthyWorkerError(RuntimeError):
    """Every dispatch attempt failed; no healthy worker answered (HTTP 503)."""


class PoisonedJobError(RuntimeError):
    """A request was quarantined after crashing ``max_job_attempts`` workers.

    Answered as HTTP 422: the request itself is the problem (every worker
    that accepted it died), so retrying it anywhere — another worker, a
    restart, a replay — would only widen the blast radius.  The journal
    records the quarantine (``op: "poisoned"``), so replay skips it.
    """

    def __init__(
        self,
        request_id: str,
        attempts: int,
        attempt_history: list[dict],
        max_job_attempts: int,
        last_error: str,
    ):
        super().__init__(
            f"request {request_id} quarantined as poisoned after {attempts} "
            f"crashed dispatch attempts "
            f"(max_job_attempts={max_job_attempts}): {last_error}"
        )
        self.request_id = request_id
        self.attempts = attempts
        self.attempt_history = attempt_history
        self.max_job_attempts = max_job_attempts


def free_port(host: str = "127.0.0.1") -> int:
    """Ask the kernel for a currently free TCP port on ``host``."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


def rendezvous_order(content_hash: str, indices: Sequence[int]) -> list[int]:
    """Rank worker indices for a job by highest-random-weight hashing.

    The rank depends only on ``(content_hash, index)`` pairs, so

    * identical jobs always prefer the same worker (warm LRU placement),
    * the ranking is stable across worker restarts (worker identity is its
      index, not its pid or port), and
    * removing a worker only moves the jobs that preferred it — every other
      job keeps its placement (the consistent-hashing property).

    Parameters
    ----------
    content_hash : str
        The job's content hash (:attr:`repro.pipeline.jobs.BatchJob.content_hash`).
    indices : Sequence[int]
        Candidate worker indices.

    Returns
    -------
    list[int]
        ``indices`` sorted most-preferred first.
    """
    def score(index: int) -> bytes:
        return hashlib.sha256(f"{content_hash}|{index}".encode("utf-8")).digest()

    return sorted(indices, key=score, reverse=True)


def _worker_env() -> dict[str, str]:
    """Subprocess environment with this package importable on PYTHONPATH."""
    import repro

    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = os.environ.copy()
    existing = env.get("PYTHONPATH", "")
    if src_dir not in existing.split(os.pathsep):
        env["PYTHONPATH"] = src_dir + (os.pathsep + existing if existing else "")
    return env


class WorkerProcess:
    """One supervised compile-worker subprocess and its link state.

    Parameters
    ----------
    index : int
        Stable worker identity (the routing key component).
    host : str
        Address the worker binds.
    port : int
        Port the worker binds (kept stable across restarts).
    command : list[str]
        Full ``argv`` to spawn the worker with.
    request_timeout : float, optional
        Socket timeout for forwarded compile requests.
    heartbeat_timeout : float, optional
        Socket timeout for health checks (short, so a hung worker is
        detected quickly).
    breaker_threshold : int, optional
        Consecutive connection-level dispatch failures before this
        worker's circuit breaker opens (excluding it from the rendezvous
        ring until the cooldown's half-open probe).
    breaker_cooldown_seconds : float, optional
        How long the dispatch breaker stays open before one probe.
    """

    def __init__(
        self,
        index: int,
        host: str,
        port: int,
        command: list[str],
        request_timeout: float = 120.0,
        heartbeat_timeout: float = 2.0,
        breaker_threshold: int = 3,
        breaker_cooldown_seconds: float = 5.0,
    ):
        self.index = index
        self.host = host
        self.port = port
        self.command = list(command)
        # The disk-tier breaker state machine is failure-source agnostic;
        # here it guards dispatch to a flapping worker.
        self.breaker = DiskCircuitBreaker(
            threshold=breaker_threshold,
            cooldown_seconds=breaker_cooldown_seconds,
        )
        self.process: subprocess.Popen | None = None
        self.state = STOPPED
        self.restarts = 0
        self.consecutive_failures = 0
        self.missed_heartbeats = 0
        self.next_restart_at = 0.0
        self.spawned_at = 0.0
        # The last exposition the worker served, kept across its downtime so
        # the front end's family set does not depend on who is up right now.
        self.last_exposition = ""
        self.ever_healthy = False
        self.port_rebinds = 0
        self.request_timeout = float(request_timeout)
        self.heartbeat_timeout = float(heartbeat_timeout)
        base_url = f"http://{host}:{port}"
        self.client = ServiceClient(base_url, timeout=request_timeout)
        self.heartbeat_client = ServiceClient(base_url, timeout=heartbeat_timeout)

    # ------------------------------------------------------------------ #

    @property
    def pid(self) -> int | None:
        """The worker's OS pid, or ``None`` when not running."""
        return self.process.pid if self.process is not None else None

    def alive(self) -> bool:
        """True while the subprocess exists and has not exited."""
        return self.process is not None and self.process.poll() is None

    def spawn(self) -> None:
        """Start (or restart) the subprocess and mark the link ``starting``."""
        _FAULT_SPAWN.hit(context=str(self.index))
        self.process = subprocess.Popen(self.command, env=_worker_env())
        self.spawned_at = time.monotonic()
        self.missed_heartbeats = 0
        self.state = STARTING

    def rebind(self, port: int, command: list[str]) -> None:
        """Move the worker to a fresh port (and argv) before a respawn.

        Used when the port allocated by :func:`free_port` turned out to be
        taken by the time the worker tried to bind it (the allocate/bind
        race): the worker identity — its index — is the routing key, so
        changing the port is invisible to rendezvous placement.
        """
        self.port = int(port)
        self.command = list(command)
        self.port_rebinds += 1
        base_url = f"http://{self.host}:{self.port}"
        self.client = ServiceClient(base_url, timeout=self.request_timeout)
        self.heartbeat_client = ServiceClient(base_url, timeout=self.heartbeat_timeout)

    def terminate(self, grace_seconds: float = 10.0) -> None:
        """SIGTERM the worker (graceful drain), escalating to SIGKILL."""
        if self.process is None:
            self.state = STOPPED
            return
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=grace_seconds)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=5.0)
        self.state = STOPPED

    def snapshot(self) -> dict:
        """JSON description for the fleet ``/healthz`` body."""
        return {
            "index": self.index,
            "port": self.port,
            "pid": self.pid,
            "state": self.state,
            "restarts": self.restarts,
            "dispatch_breaker": self.breaker.state,
        }


class FleetSupervisor:
    """Spawn, watch, restart and route to a fleet of compile workers.

    Parameters
    ----------
    num_workers : int
        Number of worker subprocesses.
    host : str, optional
        Address workers (and heartbeats) bind/connect on.
    cache_dir : str | None, optional
        Shared persistent result-cache directory (safe across processes:
        entries are content-addressed and written atomically).
    subgraph_cache_dir : str | None, optional
        Shared disk tier of the subgraph compile cache.
    journal_path : str | None, optional
        Pending-queue journal file; ``None`` disables journaling (and
        replay).
    pool_workers : int, optional
        Per-worker process-pool width (``repro serve --pool-workers``).
    batch_window_ms : float, optional
        Micro-batching window forwarded to every worker.
    heartbeat_seconds : float, optional
        Supervision loop period.
    heartbeat_misses : int, optional
        Consecutive failed heartbeats before a live-but-unresponsive worker
        is killed and restarted.
    restart_backoff_seconds : float, optional
        First restart delay; doubles per consecutive failure.
    restart_backoff_cap_seconds : float, optional
        Upper bound on the restart delay.
    worker_start_timeout : float, optional
        How long a spawned worker may take to answer ``/metrics`` before it
        is considered failed.
    request_timeout : float, optional
        Socket timeout for forwarded compile requests.
    dispatch_attempts : int, optional
        Dispatch attempts per request before giving up (each attempt picks
        the best healthy worker by rendezvous rank).
    dispatch_wait_seconds : float, optional
        How long one attempt waits for *any* healthy worker before failing
        (covers the restart window after a crash).
    max_job_attempts : int, optional
        Crashed dispatch attempts (connection-level failures, summed across
        restarts via the journal) before a request is quarantined as
        poisoned and answered HTTP 422.
    compile_timeout_s : float | None, optional
        Per-compile wall-clock watchdog forwarded to every worker
        (``repro serve --compile-timeout-s``); ``None`` disables it.
    epoch : int, optional
        Leadership epoch of this front end (0 outside HA pairs).  Stamped
        on every journal record and worker dispatch so stale writers can
        be fenced.
    replication : ReplicationLink | None, optional
        Synchronous journal replication link to the standby; installed as
        the journal's mirror so records are durable on both peers before
        a request is answered.
    acceptor : ReplicationAcceptor | None, optional
        The (still running) replication listener a promoted standby keeps
        to fence its deposed predecessor; exposed through metrics.
    lease : Lease | None, optional
        Leadership lease renewed on every supervision tick; losing it
        (a higher epoch appeared) stands this front end down.
    hedge_quantile : float | None, optional
        When set (a fraction in ``(0, 1)``), a first dispatch attempt that
        exceeds this latency quantile fires one hedged attempt to the
        next-ranked healthy worker; first success wins.  ``None`` (the
        default) disables hedging.
    hedge_after_seconds : float, optional
        Floor on the hedge trigger latency (quantiles of an empty or very
        fast window would otherwise hedge every request).
    dispatch_breaker_threshold : int, optional
        Per-worker consecutive dispatch failures before its breaker opens.
    dispatch_breaker_cooldown_seconds : float, optional
        How long an open dispatch breaker excludes a worker.
    """

    def __init__(
        self,
        num_workers: int,
        host: str = "127.0.0.1",
        cache_dir: str | None = None,
        subgraph_cache_dir: str | None = None,
        journal_path: str | None = None,
        pool_workers: int = 1,
        batch_window_ms: float = 20.0,
        heartbeat_seconds: float = 0.5,
        heartbeat_misses: int = 3,
        restart_backoff_seconds: float = 0.25,
        restart_backoff_cap_seconds: float = 8.0,
        worker_start_timeout: float = 60.0,
        request_timeout: float = 120.0,
        dispatch_attempts: int = 4,
        dispatch_wait_seconds: float = 15.0,
        max_job_attempts: int = 3,
        compile_timeout_s: float | None = None,
        epoch: int = 0,
        replication=None,
        acceptor=None,
        lease=None,
        hedge_quantile: float | None = None,
        hedge_after_seconds: float = 0.05,
        dispatch_breaker_threshold: int = 3,
        dispatch_breaker_cooldown_seconds: float = 5.0,
    ):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if max_job_attempts < 1:
            raise ValueError(f"max_job_attempts must be >= 1, got {max_job_attempts}")
        if compile_timeout_s is not None and compile_timeout_s <= 0:
            raise ValueError(
                f"compile_timeout_s must be > 0, got {compile_timeout_s}"
            )
        if hedge_quantile is not None and not 0.0 < hedge_quantile < 1.0:
            raise ValueError(
                f"hedge_quantile must be in (0, 1), got {hedge_quantile}"
            )
        self.host = host
        self.cache_dir = cache_dir
        self.subgraph_cache_dir = subgraph_cache_dir
        self.pool_workers = int(pool_workers)
        self.batch_window_ms = float(batch_window_ms)
        self.heartbeat_seconds = float(heartbeat_seconds)
        self.heartbeat_misses = int(heartbeat_misses)
        self.restart_backoff_seconds = float(restart_backoff_seconds)
        self.restart_backoff_cap_seconds = float(restart_backoff_cap_seconds)
        self.worker_start_timeout = float(worker_start_timeout)
        self.request_timeout = float(request_timeout)
        self.dispatch_attempts = int(dispatch_attempts)
        self.dispatch_wait_seconds = float(dispatch_wait_seconds)
        self.max_job_attempts = int(max_job_attempts)
        self.compile_timeout_s = (
            float(compile_timeout_s) if compile_timeout_s is not None else None
        )
        self._poisoned_total = 0
        self.started_at = time.time()

        self.epoch = int(epoch)
        self.replication = replication
        self.acceptor = acceptor
        self.lease = lease
        self.hedge_quantile = hedge_quantile
        self.hedge_after_seconds = float(hedge_after_seconds)
        self._deposed = False
        self._failovers = 0

        self.journal = PendingJournal(journal_path) if journal_path else None
        self._journal_path = journal_path
        self._replay_backlog = 0
        if self.journal is not None:
            if self.epoch:
                self.journal.set_epoch(self.epoch)
            if replication is not None:
                self.journal.set_mirror(self._mirror_record)
        if replication is not None and journal_path:
            # Stream our unfinished backlog after each (re)connect so a
            # standby that attached late still holds every accepted-but-
            # unfinished request (the replica dedups by request id).
            replication.on_connect = self._replication_catch_up

        self.workers: list[WorkerProcess] = []
        for index in range(num_workers):
            port = free_port(host)
            self.workers.append(
                WorkerProcess(
                    index,
                    host,
                    port,
                    self._worker_command(port),
                    request_timeout=request_timeout,
                    breaker_threshold=dispatch_breaker_threshold,
                    breaker_cooldown_seconds=dispatch_breaker_cooldown_seconds,
                )
            )

        self._lock = threading.Lock()
        self._inflight = 0
        self._idle = threading.Condition(self._lock)
        self._draining = False
        self._stop = threading.Event()
        self._supervisor_thread: threading.Thread | None = None
        self._replay_thread: threading.Thread | None = None
        # Worker probes run concurrently (one hung worker must not delay
        # the others' probes); the in-flight set prevents a slow
        # probe from stacking up duplicates for the same worker.
        self._probe_pool = ThreadPoolExecutor(
            max_workers=max(2, num_workers), thread_name_prefix="repro-fleet-probe"
        )
        self._probing: set[int] = set()
        self._probe_lock = threading.Lock()

        # Create every declared instrument up front so the exposition is
        # complete from the first scrape (CI validates this set plus the
        # relayed worker families).
        self.registry = MetricsRegistry()
        self._instruments = self.registry.declare(FLEET_METRICS)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def _worker_command(self, port: int) -> list[str]:
        command = [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--host",
            self.host,
            "--port",
            str(port),
            "--workers",
            "1",
            "--pool-workers",
            str(self.pool_workers),
            "--batch-window-ms",
            str(self.batch_window_ms),
        ]
        if self.cache_dir:
            command += ["--cache-dir", str(self.cache_dir)]
        if self.subgraph_cache_dir:
            command += ["--subgraph-cache-dir", str(self.subgraph_cache_dir)]
        if self.compile_timeout_s is not None:
            command += ["--compile-timeout-s", str(self.compile_timeout_s)]
        return command

    def start(self, wait_ready: bool = True, replay: bool = True) -> None:
        """Spawn the workers, start supervision, kick off journal replay.

        Parameters
        ----------
        wait_ready : bool, optional
            Block until every worker answers ``/metrics`` (or its start
            timeout expires).
        replay : bool, optional
            Re-dispatch unfinished journal entries from a previous run (in
            the background, so the front end can accept traffic while the
            backlog drains).
        """
        now = time.monotonic()
        for worker in self.workers:
            try:
                worker.spawn()
            except OSError as exc:
                # The supervision loop will retry with backoff; an initial
                # spawn failure must not take the whole fleet down.
                worker.consecutive_failures += 1
                worker.next_restart_at = now + self.restart_backoff_seconds
                worker.state = RESTARTING
                log_event(
                    "worker_spawn_error",
                    level="error",
                    worker=worker.index,
                    error=f"{type(exc).__name__}: {exc}",
                )
                continue
            log_event(
                "worker_spawn", worker=worker.index, pid=worker.pid, port=worker.port
            )
        if wait_ready:
            deadline = time.monotonic() + self.worker_start_timeout
            for worker in self.workers:
                while worker.state == STARTING and time.monotonic() < deadline:
                    try:
                        worker.last_exposition = worker.heartbeat_client.metrics()
                        worker.state = HEALTHY
                        worker.ever_healthy = True
                    except ServiceError:
                        time.sleep(0.05)
                if worker.state != HEALTHY:
                    log_event(
                        "worker_start_timeout", level="warning", worker=worker.index
                    )
        self._supervisor_thread = threading.Thread(
            target=self._supervise, name="repro-fleet-supervisor", daemon=True
        )
        self._supervisor_thread.start()
        if replay and self._journal_path:
            backlog = PendingJournal.load_unfinished(self._journal_path)
            self._replay_backlog = len(backlog)
            if backlog:
                self._replay_thread = threading.Thread(
                    target=self._replay,
                    args=(backlog,),
                    name="repro-fleet-replay",
                    daemon=True,
                )
                self._replay_thread.start()

    def stop(self, grace_seconds: float = 10.0) -> None:
        """Stop supervision and terminate every worker (no drain)."""
        self._stop.set()
        if self._supervisor_thread is not None:
            self._supervisor_thread.join(timeout=5.0)
        self._probe_pool.shutdown(wait=False)
        for worker in self.workers:
            worker.terminate(grace_seconds=grace_seconds)
        if self.journal is not None:
            self.journal.close()
        if self.replication is not None:
            self.replication.close()
        if self.acceptor is not None:
            self.acceptor.stop()

    def drain(self, timeout: float = 60.0) -> bool:
        """Graceful SIGTERM semantics: stop accepting, flush, stop workers.

        Parameters
        ----------
        timeout : float, optional
            Maximum seconds to wait for in-flight requests.

        Returns
        -------
        bool
            True when every in-flight request finished inside ``timeout``.
        """
        with self._lock:
            if self._draining:
                return True
            self._draining = True
        self._instruments["repro_fleet_draining"].set(1)
        log_event("drain_begin", inflight=self.inflight)
        deadline = time.monotonic() + timeout
        clean = True
        with self._idle:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    clean = False
                    break
                self._idle.wait(timeout=min(remaining, 0.5))
        if self.journal is not None and clean:
            self.journal.compact()
        self.stop()
        log_event("drain_complete", clean=clean)
        return clean

    @property
    def draining(self) -> bool:
        """True once a drain has begun."""
        with self._lock:
            return self._draining

    @property
    def inflight(self) -> int:
        """Requests currently being dispatched."""
        with self._lock:
            return self._inflight

    # ------------------------------------------------------------------ #
    # Supervision loop
    # ------------------------------------------------------------------ #

    def _supervise(self) -> None:
        while not self._stop.wait(self.heartbeat_seconds):
            if self.draining:
                continue
            self._renew_leadership()
            for worker in self.workers:
                with self._probe_lock:
                    if worker.index in self._probing:
                        # The previous probe of this worker is still in
                        # flight (hung worker riding out its heartbeat
                        # timeout); don't stack another behind it.
                        continue
                    self._probing.add(worker.index)
                try:
                    self._probe_pool.submit(self._probe_worker, worker)
                except RuntimeError:  # pool shut down mid-tick
                    with self._probe_lock:
                        self._probing.discard(worker.index)
                    return

    def _probe_worker(self, worker: WorkerProcess) -> None:
        try:
            self._check_worker(worker)
        except Exception as exc:  # noqa: BLE001 - never kill the pool
            log_event(
                "supervisor_error",
                level="error",
                worker=worker.index,
                error=f"{type(exc).__name__}: {exc}",
            )
        finally:
            with self._probe_lock:
                self._probing.discard(worker.index)

    def _renew_leadership(self) -> None:
        """Renew the lease and heartbeat the standby (HA primaries only)."""
        if self._deposed:
            return
        if self.lease is not None:
            try:
                self.lease.renew()
            except LeaseLostError as exc:
                self._stand_down(f"lease lost: {exc}")
                return
            except OSError as exc:
                # Includes injected lease.renew faults: a missed renewal is
                # survivable (the TTL gives us slack); log and carry on.
                log_event("lease_renew_error", level="warning", error=str(exc))
        if self.replication is not None:
            try:
                self.replication.heartbeat()
            except ReplicationFencedError as exc:
                self._stand_down(f"replication fenced: {exc}")

    def _stand_down(self, reason: str) -> None:
        """Fence ourselves: a higher epoch exists, stop accepting work."""
        with self._lock:
            if self._deposed:
                return
            self._deposed = True
        log_event("front_end_deposed", level="error",
                  epoch=self.epoch, reason=reason)

    def note_failover(self) -> None:
        """Record that this front end promoted from standby to primary."""
        with self._lock:
            self._failovers += 1
        self._instruments["repro_fleet_failovers_total"].inc()

    def _mirror_record(self, record: dict) -> None:
        """Synchronously replicate one journal record to the standby.

        Called by the journal inside its append (after the local fsync).
        A degraded link (standby down) is counted and tolerated —
        availability wins — but a *fence* (the standby promoted past us)
        raises :class:`StaleEpochError` so the request fails instead of
        being acknowledged by a deposed primary.
        """
        link = self.replication
        if link is None:
            return
        try:
            link.send_record(record)
        except ReplicationFencedError as exc:
            self._stand_down(f"replication fenced: {exc}")
            raise StaleEpochError(self.epoch, exc.fence_epoch) from exc

    def _replication_catch_up(self, link) -> None:
        """Resend the unfinished backlog after a replication (re)connect."""
        if not self._journal_path:
            return
        backlog = PendingJournal.load_unfinished(self._journal_path)
        for entry in backlog:
            record = {
                "op": "pending",
                "request_id": entry.request_id,
                "payload": entry.payload,
                "content_hash": entry.content_hash,
                "schema_version": JOURNAL_SCHEMA_VERSION,
            }
            if entry.attempts:
                record["attempts"] = entry.attempts
            if self.epoch:
                record["epoch"] = self.epoch
            link.send_record(record)
        if backlog:
            log_event("replication_catch_up", entries=len(backlog))

    def _check_worker(self, worker: WorkerProcess) -> None:
        now = time.monotonic()
        if not worker.alive():
            if worker.state != RESTARTING:
                delay = min(
                    self.restart_backoff_cap_seconds,
                    self.restart_backoff_seconds * (2**worker.consecutive_failures),
                )
                worker.consecutive_failures += 1
                worker.next_restart_at = now + delay
                worker.state = RESTARTING
                log_event(
                    "worker_down",
                    level="warning",
                    worker=worker.index,
                    restart_in_seconds=round(delay, 3),
                    consecutive_failures=worker.consecutive_failures,
                )
            elif now >= worker.next_restart_at:
                if not worker.ever_healthy and worker.port_rebinds == 0:
                    # The worker never came up on its assigned port — most
                    # likely it lost the free_port() allocate/bind race to
                    # another process.  Retry exactly once on a fresh port;
                    # routing is by index, so the move is invisible.
                    new_port = free_port(self.host)
                    worker.rebind(new_port, self._worker_command(new_port))
                    log_event(
                        "worker_rebind",
                        level="warning",
                        worker=worker.index,
                        port=new_port,
                    )
                try:
                    worker.spawn()
                except OSError as exc:
                    worker.consecutive_failures += 1
                    worker.next_restart_at = now + min(
                        self.restart_backoff_cap_seconds,
                        self.restart_backoff_seconds
                        * (2**worker.consecutive_failures),
                    )
                    log_event(
                        "worker_spawn_error",
                        level="error",
                        worker=worker.index,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    return
                worker.restarts += 1
                self._instruments["repro_fleet_worker_restarts_total"].inc()
                log_event(
                    "worker_restart",
                    worker=worker.index,
                    pid=worker.pid,
                    restarts=worker.restarts,
                )
            return
        # Process is alive: heartbeat it.
        try:
            _FAULT_HEARTBEAT.hit(context=str(worker.index))
            worker.last_exposition = worker.heartbeat_client.metrics()
        except (ServiceError, OSError) as exc:
            if worker.state == STARTING:
                if now - worker.spawned_at > self.worker_start_timeout:
                    log_event(
                        "worker_start_timeout", level="warning", worker=worker.index
                    )
                    worker.terminate(grace_seconds=1.0)
                return
            worker.missed_heartbeats += 1
            if worker.missed_heartbeats >= self.heartbeat_misses:
                log_event(
                    "worker_unresponsive",
                    level="warning",
                    worker=worker.index,
                    missed=worker.missed_heartbeats,
                    error=str(exc),
                )
                worker.state = UNHEALTHY
                worker.terminate(grace_seconds=1.0)
            return
        worker.missed_heartbeats = 0
        if worker.state != HEALTHY:
            worker.state = HEALTHY
            worker.ever_healthy = True
            worker.consecutive_failures = 0
            log_event("worker_healthy", worker=worker.index, pid=worker.pid)

    # ------------------------------------------------------------------ #
    # Routing and dispatch
    # ------------------------------------------------------------------ #

    def route(self, content_hash: str) -> list[WorkerProcess]:
        """Workers in rendezvous order for ``content_hash`` (all states)."""
        order = rendezvous_order(content_hash, [w.index for w in self.workers])
        by_index = {worker.index: worker for worker in self.workers}
        return [by_index[index] for index in order]

    def _pick_worker(
        self, ranked: list[WorkerProcess], tried: set[int], deadline: float
    ) -> WorkerProcess | None:
        while True:
            # First choice: healthy, untried this request, and not excluded
            # by its dispatch circuit breaker.  breaker.allow() is only
            # consulted for otherwise-eligible candidates because an open
            # breaker's first allow() consumes its half-open probe.
            for worker in ranked:
                if (
                    worker.state == HEALTHY
                    and worker.index not in tried
                    and worker.breaker.allow()
                ):
                    return worker
            # Next: healthy and untried even if the breaker objects —
            # availability beats tail-latency shaping when the ring is
            # otherwise empty.
            for worker in ranked:
                if worker.state == HEALTHY and worker.index not in tried:
                    return worker
            # Every healthy worker was already tried this request: allow a
            # second round rather than failing while capacity exists.
            for worker in ranked:
                if worker.state == HEALTHY:
                    return worker
            if time.monotonic() >= deadline or self._stop.is_set():
                return None
            time.sleep(0.05)

    def _forward(self, worker: WorkerProcess, payload: dict, content_hash: str) -> dict:
        _FAULT_FORWARD.hit(context=content_hash)
        headers = {"X-Repro-Epoch": str(self.epoch)} if self.epoch else None
        return worker.client.compile_payload(payload, headers=headers)

    def _hedge_threshold_seconds(self) -> float:
        """Latency past which the first attempt gets a hedged sibling."""
        quantile = self._instruments["repro_fleet_request_latency_seconds"].quantile(
            self.hedge_quantile
        )
        return max(self.hedge_after_seconds, quantile)

    def _forward_hedged(
        self,
        worker: WorkerProcess,
        ranked: list[WorkerProcess],
        tried: set[int],
        payload: dict,
        content_hash: str,
        request_id: str,
        hedge_allowed: bool,
    ) -> tuple[dict, WorkerProcess]:
        """Forward to ``worker``, optionally hedging a slow first attempt.

        With hedging enabled (``hedge_quantile``) and allowed (first
        attempt only — retries already have a failure signal), the primary
        forward runs on a helper thread; if it has not answered within the
        hedge-quantile latency, one hedged attempt fires at the
        next-ranked healthy worker and the first success wins.  ``/compile``
        is content-hash idempotent, so the losing attempt is harmless.

        Returns ``(body, serving_worker)``; raises the primary attempt's
        error when every launched attempt failed (only the primary's
        connection failures count toward the poison budget).
        """
        if not hedge_allowed or self.hedge_quantile is None or self._stop.is_set():
            return self._forward(worker, payload, content_hash), worker

        cond = threading.Condition()
        outcomes: list[tuple[WorkerProcess, dict | None, Exception | None]] = []

        def attempt(target: WorkerProcess) -> None:
            try:
                entry = (target, self._forward(target, payload, content_hash), None)
            except (ServiceError, OSError) as exc:
                entry = (target, None, exc)
            with cond:
                outcomes.append(entry)
                cond.notify_all()

        threading.Thread(
            target=attempt, args=(worker,), name="repro-hedge-primary", daemon=True
        ).start()
        threshold = self._hedge_threshold_seconds()
        with cond:
            cond.wait_for(lambda: outcomes, timeout=threshold)
            finished = list(outcomes)
        if finished:
            target, body, error = finished[0]
            if error is not None:
                raise error
            return body, target

        backup = None
        for candidate in ranked:
            if (
                candidate.index != worker.index
                and candidate.index not in tried
                and candidate.state == HEALTHY
                and candidate.breaker.allow()
            ):
                backup = candidate
                break
        if backup is None:
            # Nobody to hedge to: ride out the primary attempt.
            with cond:
                cond.wait_for(lambda: outcomes)
                target, body, error = outcomes[0]
            if error is not None:
                raise error
            return body, target

        tried.add(backup.index)
        if self.journal is not None:
            self.journal.record_attempt(request_id, backup.index)
        self._instruments["repro_fleet_hedged_requests_total"].inc()
        log_event(
            "dispatch_hedged",
            request_id=request_id,
            worker=worker.index,
            hedge_worker=backup.index,
            threshold_s=round(threshold, 4),
        )
        threading.Thread(
            target=attempt, args=(backup,), name="repro-hedge-backup", daemon=True
        ).start()
        with cond:
            while True:
                for target, body, error in outcomes:
                    if error is None:
                        if target is backup:
                            self._instruments["repro_fleet_hedge_wins_total"].inc()
                        return body, target
                if len(outcomes) >= 2:
                    break
                cond.wait()
            finished = list(outcomes)
        primary_error: Exception | None = None
        for target, _body, error in finished:
            if target is backup:
                status = error.status if isinstance(error, ServiceError) else 0
                if status == 0:
                    backup.breaker.record_failure()
            else:
                primary_error = error
        raise primary_error

    def dispatch(
        self,
        payload: dict,
        request_id: str | None = None,
        journal_accept: bool = True,
        prior_attempts: int = 0,
    ) -> dict:
        """Route one compile payload to a worker, retrying across failures.

        Parameters
        ----------
        payload : dict
            A ``/compile`` job payload (validated before any dispatch).
        request_id : str | None, optional
            Correlation id; generated when absent.
        journal_accept : bool, optional
            Write the ``pending`` journal line (False during replay, where
            the entry already exists).
        prior_attempts : int, optional
            Crashed dispatch attempts already charged to this request by a
            previous fleet run (recovered from the journal during replay);
            counted toward the ``max_job_attempts`` poison threshold.

        Returns
        -------
        dict
            The worker's outcome body, augmented with ``request_id`` and
            ``worker`` (the serving worker's index).

        Raises
        ------
        ValueError
            Malformed payload (journaled as terminally failed).
        FleetDrainingError
            The fleet is draining.
        PoisonedJobError
            The request crashed ``max_job_attempts`` workers and was
            quarantined (journaled ``poisoned``, answered HTTP 422).
        NoHealthyWorkerError
            All dispatch attempts exhausted.
        ServiceError
            A worker answered with an HTTP error (relayed verbatim).
        """
        request_id = request_id or uuid.uuid4().hex[:16]
        try:
            job = BatchJob.from_dict(payload)
        except (ValueError, TypeError) as exc:
            if self.journal is not None and journal_accept:
                # Journal the rejection so a replayed journal never retries
                # a payload that can never parse.
                self.journal.record_pending(request_id, payload, "invalid")
                self.journal.record_failed(request_id, str(exc))
            raise ValueError(str(exc)) from exc
        content_hash = job.content_hash
        with self._lock:
            if self._draining:
                raise FleetDrainingError("fleet is draining; not accepting work")
            if self._deposed:
                raise FleetDrainingError(
                    "front end deposed (stale leadership epoch); "
                    "retry against the new primary"
                )
            self._inflight += 1
        self._instruments["repro_fleet_requests_total"].inc()
        started = time.perf_counter()
        try:
            # Inside the try so a journal append rejected by the fence
            # (StaleEpochError from the replication mirror) still releases
            # the in-flight slot.
            if self.journal is not None and journal_accept:
                self.journal.record_pending(request_id, payload, content_hash)
            body = self._dispatch_attempts(
                payload, request_id, content_hash, prior_attempts
            )
            if self.journal is not None:
                self.journal.record_done(request_id)
            body["request_id"] = request_id
            return body
        finally:
            elapsed = time.perf_counter() - started
            self._instruments["repro_fleet_request_latency_seconds"].observe(elapsed)
            with self._idle:
                self._inflight -= 1
                if self._inflight == 0:
                    self._idle.notify_all()

    def _dispatch_attempts(
        self,
        payload: dict,
        request_id: str,
        content_hash: str,
        prior_attempts: int = 0,
    ) -> dict:
        ranked = self.route(content_hash)
        tried: set[int] = set()
        last_error = "no healthy workers"
        crashed = int(prior_attempts)
        history: list[dict] = []
        deadline = time.monotonic() + self.dispatch_wait_seconds
        for attempt in range(self.dispatch_attempts):
            if crashed >= self.max_job_attempts:
                # Checked before (not only after) forwarding so a replayed
                # entry that already burned its attempts in previous runs is
                # quarantined without crashing yet another worker.
                self._quarantine_poisoned(request_id, crashed, last_error, history)
            worker = self._pick_worker(ranked, tried, deadline)
            if worker is None:
                break
            tried.add(worker.index)
            if self.journal is not None:
                self.journal.record_attempt(request_id, worker.index)
            try:
                body, served_by = self._forward_hedged(
                    worker,
                    ranked,
                    tried,
                    payload,
                    content_hash,
                    request_id,
                    hedge_allowed=(attempt == 0),
                )
            except (ServiceError, OSError) as exc:
                status = exc.status if isinstance(exc, ServiceError) else 0
                if status == 0:
                    # Connection-level failure: the worker died or hung
                    # mid-request.  Charge a crashed attempt, mark the link
                    # suspect and re-dispatch to the next worker in
                    # rendezvous order.
                    last_error = str(exc)
                    crashed += 1
                    history.append({"worker": worker.index, "error": last_error})
                    self._instruments["repro_fleet_retries_total"].inc()
                    worker.breaker.record_failure()
                    self._note_dispatch_failure(worker)
                    log_event(
                        "dispatch_retry",
                        level="warning",
                        request_id=request_id,
                        worker=worker.index,
                        attempt=attempt,
                        crashed_attempts=crashed,
                        error=last_error,
                    )
                    continue
                if (
                    status == 409
                    and isinstance(exc, ServiceError)
                    and exc.body.get("stale_epoch")
                ):
                    # The worker has seen a higher leadership epoch: we
                    # were deposed.  Stop accepting and fail the request so
                    # the client fails over to the new primary.
                    self._instruments["repro_fleet_fenced_dispatches_total"].inc()
                    self._stand_down(f"worker fenced dispatch: {exc}")
                # A real HTTP answer (400/429/500): the worker is fine, the
                # request outcome is terminal — journal and relay.
                if self.journal is not None:
                    self.journal.record_failed(request_id, f"HTTP {status}: {exc}")
                raise
            served_by.breaker.record_success()
            body["worker"] = served_by.index
            return body
        if crashed >= self.max_job_attempts:
            self._quarantine_poisoned(request_id, crashed, last_error, history)
        self._instruments["repro_fleet_request_failures_total"].inc()
        log_event(
            "dispatch_failed",
            level="error",
            request_id=request_id,
            error=last_error,
        )
        raise NoHealthyWorkerError(last_error)

    def _quarantine_poisoned(
        self,
        request_id: str,
        attempts: int,
        last_error: str,
        history: list[dict],
    ) -> None:
        """Journal a poison quarantine and raise :class:`PoisonedJobError`."""
        if self.journal is not None:
            self.journal.record_poisoned(request_id, attempts, last_error)
        with self._lock:
            self._poisoned_total += 1
        self._instruments["repro_fleet_poisoned_total"].inc()
        log_event(
            "poison_quarantine",
            level="error",
            request_id=request_id,
            attempts=attempts,
            max_job_attempts=self.max_job_attempts,
            error=last_error,
        )
        raise PoisonedJobError(
            request_id, attempts, history, self.max_job_attempts, last_error
        )

    def _note_dispatch_failure(self, worker: WorkerProcess) -> None:
        # Only demote the link when the process is actually gone; a single
        # timed-out request on a live worker is not a death sentence (the
        # heartbeat loop owns that call).
        if not worker.alive() and worker.state == HEALTHY:
            worker.state = UNHEALTHY

    def _replay(self, backlog: list[JournalEntry]) -> None:
        log_event("journal_replay_begin", entries=len(backlog))
        replayed = 0
        for entry in backlog:
            if self._stop.is_set() or self.draining:
                break
            try:
                self.dispatch(
                    entry.payload,
                    request_id=entry.request_id,
                    journal_accept=False,
                    prior_attempts=entry.attempts,
                )
                replayed += 1
                self._instruments["repro_fleet_journal_replayed_total"].inc()
            except PoisonedJobError as exc:
                log_event(
                    "journal_replay_poisoned",
                    level="warning",
                    request_id=entry.request_id,
                    attempts=exc.attempts,
                )
            except (ValueError, FleetDrainingError, NoHealthyWorkerError, ServiceError) as exc:
                log_event(
                    "journal_replay_error",
                    level="warning",
                    request_id=entry.request_id,
                    error=str(exc),
                )
            with self._lock:
                self._replay_backlog = max(0, self._replay_backlog - 1)
        if self.journal is not None and not self.draining:
            self.journal.compact()
        log_event("journal_replay_complete", replayed=replayed)

    # ------------------------------------------------------------------ #
    # Ops surface
    # ------------------------------------------------------------------ #

    def healthz(self) -> dict:
        """The fleet status body served on ``GET /healthz``."""
        import repro

        with self._lock:
            inflight = self._inflight
            draining = self._draining
            poisoned = self._poisoned_total
            deposed = self._deposed
            failovers = self._failovers
        status = "ok"
        if draining:
            status = "draining"
        elif deposed:
            status = "deposed"
        return {
            "status": status,
            "role": "fleet",
            "ha": {
                "epoch": self.epoch,
                "deposed": deposed,
                "failovers": failovers,
                "lease": str(self.lease.path) if self.lease is not None else None,
                "replication": (
                    self.replication.snapshot()
                    if self.replication is not None
                    else None
                ),
                "acceptor": (
                    self.acceptor.snapshot() if self.acceptor is not None else None
                ),
            },
            "version": repro.__version__,
            "pid": os.getpid(),
            "uptime_seconds": time.time() - self.started_at,
            "num_workers": len(self.workers),
            "inflight": inflight,
            "requests_total": int(
                self._instruments["repro_fleet_requests_total"].value()
            ),
            "poisoned_total": poisoned,
            "max_job_attempts": self.max_job_attempts,
            "journal": {
                "enabled": self.journal is not None,
                "path": self._journal_path,
                "replay_backlog": self._replay_backlog,
            },
            "workers": [worker.snapshot() for worker in self.workers],
        }

    def render_metrics(self) -> str:
        """Refresh the front end's gauges and render the full exposition.

        The front end's own families come first; then every worker's last
        exposition, each sample relabelled with ``worker="<index>"``.
        Nothing is summed across workers, so a restarted worker restarts
        only its own series.
        """
        ins = self._instruments
        ins["repro_fleet_uptime_seconds"].set(time.time() - self.started_at)
        ins["repro_fleet_workers_total"].set(len(self.workers))
        healthy = sum(1 for worker in self.workers if worker.state == HEALTHY)
        ins["repro_fleet_workers_healthy"].set(healthy)
        with self._lock:
            ins["repro_fleet_inflight_requests"].set(self._inflight)
            ins["repro_fleet_journal_pending"].set(self._inflight + self._replay_backlog)
            deposed = self._deposed
        ins["repro_fleet_role"].set(0.0 if deposed else 1.0)
        ins["repro_fleet_epoch"].set(float(self.epoch))
        link = self.replication
        acceptor = self.acceptor
        ins["repro_fleet_replication_connected"].set(
            1.0 if (link is not None and link.connected) else 0.0
        )
        ins["repro_fleet_replication_records_total"].set_total(
            (link.records_total if link is not None else 0)
            + (acceptor.records_total if acceptor is not None else 0)
        )
        ins["repro_fleet_replication_failures_total"].set_total(
            link.failures_total if link is not None else 0
        )
        ins["repro_fleet_fenced_writes_total"].set_total(
            acceptor.fenced_total if acceptor is not None else 0
        )
        dispatch_open = dispatch_opens = 0
        for worker in self.workers:
            ins["repro_fleet_worker_up"].set(
                1.0 if worker.state == HEALTHY else 0.0, worker=str(worker.index)
            )
            breaker = worker.breaker.snapshot()
            dispatch_open += int(breaker["open"])
            dispatch_opens += int(breaker["opens"])
        ins["repro_fleet_dispatch_breaker_open"].set(dispatch_open)
        ins["repro_fleet_dispatch_breaker_opens_total"].set_total(dispatch_opens)
        relayed = relabel_expositions(
            {str(worker.index): worker.last_exposition for worker in self.workers}
        )
        return self.registry.render() + relayed


class _FleetHandler(JSONRequestHandler):
    """Route front-end HTTP requests to the :class:`FleetSupervisor`."""

    server: "FleetServer"

    # ------------------------------------------------------------------ #

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """Serve ``/healthz``, ``/metrics`` and ``/status/<worker>-<id>``."""
        supervisor = self.server.supervisor
        if self.path == "/healthz":
            self._send(200, supervisor.healthz())
            return
        if self.path == "/metrics":
            self._send(200, supervisor.render_metrics())
            return
        if self.path.startswith("/status/"):
            self._forward_status(self.path[len("/status/"):])
            return
        self._send(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        """Serve ``/compile`` (hash-routed) and ``/batch`` (forwarded)."""
        try:
            payload = self._read_json()
        except ValueError as exc:
            self._send(400, {"error": str(exc)})
            return
        if self.path == "/compile":
            self._handle_compile(payload)
        elif self.path == "/batch":
            self._handle_batch(payload)
        else:
            self._send(404, {"error": f"unknown path {self.path!r}"})

    # ------------------------------------------------------------------ #

    def _handle_compile(self, payload: dict) -> None:
        supervisor = self.server.supervisor
        request_id = self.headers.get("X-Request-Id") or uuid.uuid4().hex[:16]
        started = time.perf_counter()
        status = 200
        worker: int | None = None
        try:
            body = supervisor.dispatch(payload, request_id=request_id)
            worker = body.get("worker")
        except ValueError as exc:
            status, body = 400, {"error": str(exc), "request_id": request_id}
        except FleetDrainingError as exc:
            status, body = 503, {"error": str(exc), "request_id": request_id}
        except PoisonedJobError as exc:
            status, body = 422, {
                "error": str(exc),
                "poisoned": True,
                "attempts": exc.attempts,
                "attempt_history": exc.attempt_history,
                "max_job_attempts": exc.max_job_attempts,
                "request_id": request_id,
            }
        except NoHealthyWorkerError as exc:
            status, body = 503, {
                "error": f"no worker could serve the request: {exc}",
                "request_id": request_id,
            }
        except StaleEpochError as exc:
            # The replication fence rejected our journal write mid-request:
            # we were deposed.  503 so the client retries against the
            # promoted standby.
            status, body = 503, {
                "error": str(exc),
                "stale_epoch": True,
                "request_id": request_id,
            }
        except ServiceError as exc:
            status = exc.status or 502
            body = dict(exc.body) or {"error": str(exc)}
            body["request_id"] = request_id
        except Exception as exc:  # noqa: BLE001 - never kill the front end
            status, body = 500, {
                "error": f"{type(exc).__name__}: {exc}",
                "request_id": request_id,
            }
        self._send(status, body, request_id=request_id)
        log_event(
            "request",
            request_id=request_id,
            path="/compile",
            status=status,
            worker=worker,
            latency_ms=round(1000.0 * (time.perf_counter() - started), 3),
        )

    def _handle_batch(self, payload: dict) -> None:
        supervisor = self.server.supervisor
        request_id = self.headers.get("X-Request-Id") or uuid.uuid4().hex[:16]
        if supervisor.draining:
            self._send(
                503,
                {"error": "fleet is draining; not accepting work",
                 "request_id": request_id},
                request_id=request_id,
            )
            return
        batch_hash = hashlib.sha256(
            json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
        ).hexdigest()
        for worker in supervisor.route(batch_hash):
            if worker.state != HEALTHY:
                continue
            try:
                body = worker.client.request("POST", "/batch", payload)
            except ServiceError as exc:
                if exc.status == 0:
                    continue
                relay = dict(exc.body) or {"error": str(exc)}
                relay["request_id"] = request_id
                self._send(exc.status or 502, relay, request_id=request_id)
                return
            # Prefix the job id with the worker index so /status can route
            # the poll back to the same worker.
            body["job_id"] = f"{worker.index}-{body['job_id']}"
            body["worker"] = worker.index
            body["request_id"] = request_id
            self._send(202, body, request_id=request_id)
            return
        self._send(
            503,
            {"error": "no healthy worker for batch", "request_id": request_id},
            request_id=request_id,
        )

    def _forward_status(self, job_id: str) -> None:
        supervisor = self.server.supervisor
        index_text, _, remote_id = job_id.partition("-")
        workers = {str(w.index): w for w in supervisor.workers}
        worker = workers.get(index_text)
        if worker is None or not remote_id:
            self._send(404, {"error": f"unknown job id {job_id!r}"})
            return
        try:
            body = worker.client.request("GET", f"/status/{remote_id}")
        except ServiceError as exc:
            body = dict(exc.body) or {"error": str(exc)}
            self._send(exc.status or 502, body)
            return
        body["job_id"] = job_id
        body["worker"] = worker.index
        self._send(200, body)

class FleetServer(ThreadingHTTPServer):
    """The thin HTTP front end bound to one :class:`FleetSupervisor`.

    Parameters
    ----------
    address : tuple[str, int]
        ``(host, port)`` to bind; port ``0`` picks a free port.
    supervisor : FleetSupervisor
        The supervisor requests are routed through.
    verbose : bool, optional
        Also emit http.server's per-request lines (JSON logs are always on).
    """

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        supervisor: FleetSupervisor,
        verbose: bool = False,
    ):
        super().__init__(address, _FleetHandler)
        self.supervisor = supervisor
        self.verbose = verbose

    def drain_and_shutdown(self, timeout: float = 60.0) -> bool:
        """Graceful SIGTERM path: drain the supervisor, stop serving."""
        clean = self.supervisor.drain(timeout=timeout)
        self.shutdown()
        return clean


def install_sigterm_drain(server: FleetServer, timeout: float = 60.0) -> None:
    """Install SIGTERM/SIGINT handlers that drain ``server`` gracefully.

    The handler runs the drain on a helper thread: calling
    ``server.shutdown()`` from the signal frame would deadlock the serving
    loop it interrupts.
    """
    def _handler(signum, frame):  # noqa: ARG001 - signal API
        log_event("signal", signal=signal.Signals(signum).name)
        threading.Thread(
            target=server.drain_and_shutdown,
            kwargs={"timeout": timeout},
            name="repro-fleet-drain",
            daemon=True,
        ).start()

    signal.signal(signal.SIGTERM, _handler)
    signal.signal(signal.SIGINT, _handler)


def start_fleet(
    num_workers: int,
    host: str = "127.0.0.1",
    port: int = 0,
    wait_ready: bool = True,
    **supervisor_kwargs,
) -> tuple[FleetServer, FleetSupervisor, threading.Thread]:
    """Build and start a fleet, serving its front end on a daemon thread.

    Parameters
    ----------
    num_workers : int
        Number of compile-worker subprocesses.
    host, port : str, int
        Front-end bind address; port ``0`` picks a free port.
    wait_ready : bool, optional
        Block until every worker answers ``/metrics``.
    **supervisor_kwargs
        Forwarded to :class:`FleetSupervisor`.

    Returns
    -------
    tuple[FleetServer, FleetSupervisor, threading.Thread]
        The front end (query ``server.server_address``), the supervisor and
        the serving thread.  Call ``supervisor.stop()`` (or
        ``server.drain_and_shutdown()``) when done.
    """
    supervisor = FleetSupervisor(num_workers, host=host, **supervisor_kwargs)
    supervisor.start(wait_ready=wait_ready)
    server = FleetServer((host, port), supervisor)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-fleet-serve", daemon=True
    )
    thread.start()
    return server, supervisor, thread
