"""Closed-loop load generator for the compilation service.

``run_loadgen`` drives a running :class:`repro.service.server.CompileServer`
with ``concurrency`` worker threads, each issuing the next request as soon as
its previous one returns (closed loop, so the offered load adapts to the
server).  The workload is a deterministic round-robin over a list of job
payloads — typically the cross product of graph families, sizes and seeds —
and the report aggregates what a capacity test needs: throughput, latency
percentiles (p50/p95/p99) and the cache-hit rate.

Because jobs repeat across rounds (and across runs, if the server has a
persistent cache directory), a *second* identical run is expected to be
served almost entirely from cache — ``repro loadgen --min-cache-hit-rate``
turns that expectation into a checkable exit code, which CI uses.

Deadline-bounded workloads (``workload_payloads(deadline_ms=...)``) route the
server through the anytime portfolio compiler; the report then additionally
tracks the deadline-miss rate, admission-control rejections (HTTP 429, which
are counted separately from failures) and the mean served quality, and
``repro loadgen --max-deadline-miss-rate`` gates on the miss rate the same
way ``--min-cache-hit-rate`` gates on caching.

As a fault-injection harness, ``run_loadgen(kill_worker_after=K)`` SIGKILLs
one healthy compile worker of a *fleet* front end (pids come from the
fleet's ``/healthz`` worker list) after K requests have completed — the CI
``fleet-smoke`` job uses it to assert that a worker crash mid-load completes
the run with zero failed requests.  ``kill_front_end_after=K`` escalates
the drill to the front end itself: the primary is SIGKILLed mid-load and
the run (given a multi-address ``url`` and generous retries) must complete
against the promoted standby with zero lost requests and zero duplicate
accepts — every request carries a unique ``X-Request-Id``, and a response
echoing an already-seen id fails the run.
"""

from __future__ import annotations

import itertools
import os
import signal
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Sequence

from repro.service.client import ServiceClient, ServiceError

__all__ = ["LoadReport", "percentile", "run_loadgen", "workload_payloads"]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` (linear interpolation).

    Parameters
    ----------
    values : Sequence[float]
        Samples; must be non-empty.
    q : float
        Percentile in ``[0, 100]``.

    Returns
    -------
    float
        The interpolated percentile.
    """
    if not values:
        raise ValueError("cannot take a percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (q / 100.0) * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def workload_payloads(
    families: Sequence[str],
    sizes: Sequence[int],
    seeds: Sequence[int] = (11,),
    kind: str = "compile",
    emitter_limit_factor: float = 1.5,
    backend: str | None = None,
    deadline_ms: float | None = None,
    priority: str | None = None,
) -> list[dict]:
    """The cross product of families/sizes/seeds as ``/compile`` payloads.

    Parameters
    ----------
    families : Sequence[str]
        Graph families (any :data:`repro.pipeline.jobs.GRAPH_FAMILIES` name).
    sizes : Sequence[int]
        Graph sizes (per-family semantics; e.g. distance for ``surface``).
    seeds : Sequence[int], optional
        Graph seeds.
    kind : str, optional
        Job kind for every payload.
    emitter_limit_factor : float, optional
        The paper's ``N_e^limit / N_e^min`` knob.
    backend : str | None, optional
        Pin the GF(2) backend for every job (``None`` = server default).
    deadline_ms : float | None, optional
        Attach an anytime-compilation deadline to every payload, routing
        the server through the portfolio compiler.
    priority : str | None, optional
        Admission-control priority class for every payload (``"high"``,
        ``"normal"`` or ``"low"``; ``None`` = server default).

    Returns
    -------
    list[dict]
        One payload per combination, in deterministic order.
    """
    payloads = []
    for family, size, seed in itertools.product(families, sizes, seeds):
        payload: dict = {
            "family": family,
            "size": size,
            "seed": seed,
            "kind": kind,
            "emitter_limit_factor": emitter_limit_factor,
        }
        if backend is not None:
            payload["backend"] = backend
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        if priority is not None:
            payload["priority"] = priority
        payloads.append(payload)
    return payloads


@dataclass
class LoadReport:
    """Aggregated outcome of one load-generation run."""

    requests: int = 0
    errors: int = 0
    cache_hits: int = 0
    coalesced: int = 0
    wall_seconds: float = 0.0
    latencies_seconds: list[float] = field(default_factory=list)
    first_errors: list[str] = field(default_factory=list)
    poisoned: int = 0
    killed_worker_index: int | None = None
    killed_worker_pid: int | None = None
    killed_after_requests: int | None = None
    killed_front_end_pid: int | None = None
    killed_front_end_after: int | None = None
    orphan_worker_pids: list[int] = field(default_factory=list)
    duplicate_accepts: int = 0
    deadline_requests: int = 0
    deadline_misses: int = 0
    admission_rejections: int = 0
    quality_cnots: list[float] = field(default_factory=list)
    quality_durations: list[float] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every request succeeded exactly once."""
        return self.errors == 0 and self.requests > 0 and self.duplicate_accepts == 0

    @property
    def throughput_rps(self) -> float:
        """Completed requests per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.requests / self.wall_seconds

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of successful requests answered from the result cache."""
        completed = self.requests - self.errors
        if completed <= 0:
            return 0.0
        return self.cache_hits / completed

    @property
    def deadline_miss_rate(self) -> float:
        """Fraction of deadline-bounded requests that returned late."""
        if self.deadline_requests <= 0:
            return 0.0
        return self.deadline_misses / self.deadline_requests

    def latency_ms(self, q: float) -> float:
        """Latency percentile ``q`` in milliseconds (0 with no samples)."""
        if not self.latencies_seconds:
            return 0.0
        return 1000.0 * percentile(self.latencies_seconds, q)

    def summary(self) -> dict:
        """JSON-serialisable aggregate (what the CLI prints)."""
        body = {
            "requests": self.requests,
            "errors": self.errors,
            "wall_seconds": self.wall_seconds,
            "throughput_rps": self.throughput_rps,
            "latency_p50_ms": self.latency_ms(50),
            "latency_p95_ms": self.latency_ms(95),
            "latency_p99_ms": self.latency_ms(99),
            "cache_hit_rate": self.cache_hit_rate,
            "coalesced": self.coalesced,
        }
        if self.deadline_requests:
            body["deadline_requests"] = self.deadline_requests
            body["deadline_misses"] = self.deadline_misses
            body["deadline_miss_rate"] = self.deadline_miss_rate
        if self.admission_rejections:
            body["admission_rejections"] = self.admission_rejections
        if self.poisoned:
            body["poisoned"] = self.poisoned
        if self.quality_cnots:
            body["mean_emitter_cnots"] = sum(self.quality_cnots) / len(
                self.quality_cnots
            )
            body["mean_duration"] = sum(self.quality_durations) / len(
                self.quality_durations
            )
        if self.killed_worker_pid is not None:
            body["killed_worker_index"] = self.killed_worker_index
            body["killed_worker_pid"] = self.killed_worker_pid
            body["killed_after_requests"] = self.killed_after_requests
        if self.killed_front_end_pid is not None:
            body["killed_front_end_pid"] = self.killed_front_end_pid
            body["killed_front_end_after"] = self.killed_front_end_after
            body["duplicate_accepts"] = self.duplicate_accepts
            body["orphan_worker_pids"] = self.orphan_worker_pids
        return body

    def to_text(self) -> str:
        """Human-readable report block."""
        lines = [
            f"requests:      {self.requests}  ({self.errors} errors)",
            f"wall:          {self.wall_seconds:.3f}s  "
            f"({self.throughput_rps:.1f} req/s)",
            f"latency p50:   {self.latency_ms(50):.1f} ms",
            f"latency p95:   {self.latency_ms(95):.1f} ms",
            f"latency p99:   {self.latency_ms(99):.1f} ms",
            f"cache hits:    {self.cache_hits} ({100.0 * self.cache_hit_rate:.1f}%)"
            f"  coalesced: {self.coalesced}",
        ]
        if self.deadline_requests:
            lines.append(
                f"deadlines:     {self.deadline_misses}/{self.deadline_requests} "
                f"missed ({100.0 * self.deadline_miss_rate:.1f}%)"
                f"  rejected: {self.admission_rejections}"
            )
            if self.quality_cnots:
                mean_cnots = sum(self.quality_cnots) / len(self.quality_cnots)
                mean_duration = sum(self.quality_durations) / len(
                    self.quality_durations
                )
                lines.append(
                    f"quality:       {mean_cnots:.2f} mean emitter CNOTs, "
                    f"{mean_duration:.2f} mean duration"
                )
        if self.poisoned:
            lines.append(f"poisoned:      {self.poisoned} request(s) quarantined (HTTP 422)")
        if self.killed_worker_pid is not None:
            lines.append(
                f"fault inject: SIGKILLed worker {self.killed_worker_index} "
                f"(pid {self.killed_worker_pid}) after "
                f"{self.killed_after_requests} requests"
            )
        if self.killed_front_end_pid is not None:
            lines.append(
                f"fault inject: SIGKILLed front end "
                f"(pid {self.killed_front_end_pid}) after "
                f"{self.killed_front_end_after} requests; "
                f"duplicate accepts: {self.duplicate_accepts}"
            )
        for message in self.first_errors:
            lines.append(f"error: {message}")
        return "\n".join(lines)


def _kill_one_worker(url: str, timeout: float, report: LoadReport, lock) -> None:
    """SIGKILL one healthy compile worker of the fleet serving ``url``.

    The victim is the first worker with a pid in the fleet's ``/healthz``
    worker list.  Raises :class:`ValueError` when the target is not a fleet
    front end (single ``repro serve`` instances expose no worker pids).
    """
    body = ServiceClient(url, timeout=timeout).healthz()
    workers = body.get("workers")
    if not workers:
        raise ValueError(
            "--kill-worker-after needs a fleet front end "
            "(repro serve --workers N > 1); /healthz lists no workers"
        )
    victims = [w for w in workers if w.get("pid") and w.get("state") == "healthy"]
    victims = victims or [w for w in workers if w.get("pid")]
    if not victims:
        raise ValueError("no worker with a pid to kill in /healthz")
    victim = victims[0]
    os.kill(int(victim["pid"]), signal.SIGKILL)
    with lock:
        report.killed_worker_index = victim.get("index")
        report.killed_worker_pid = int(victim["pid"])


def _kill_front_end(url: str, timeout: float, report: LoadReport, lock) -> None:
    """SIGKILL the front-end process serving ``url`` (failover drill).

    ``url`` may be a comma-separated address list; the kill always targets
    the *first* address — the primary — so a standby listed second can take
    over.  The primary's own pid comes from its ``/healthz`` body; worker
    pids from its worker list are recorded as orphans (SIGKILL gives the
    supervisor no chance to reap them, so the harness caller cleans up).
    """
    primary_url = str(url).split(",")[0].strip()
    body = ServiceClient(primary_url, timeout=timeout).healthz()
    pid = body.get("pid")
    if not pid:
        raise ValueError(
            "--kill-front-end-after needs /healthz to report the front-end pid"
        )
    orphans = [
        int(w["pid"]) for w in (body.get("workers") or []) if w.get("pid")
    ]
    os.kill(int(pid), signal.SIGKILL)
    with lock:
        report.killed_front_end_pid = int(pid)
        report.orphan_worker_pids = orphans


def run_loadgen(
    url: str,
    payloads: Sequence[dict],
    requests: int = 50,
    concurrency: int = 4,
    timeout: float = 120.0,
    retries: int = 1,
    kill_worker_after: int | None = None,
    kill_front_end_after: int | None = None,
    poison_payload: dict | None = None,
) -> LoadReport:
    """Drive the service closed-loop and aggregate a :class:`LoadReport`.

    Parameters
    ----------
    url : str
        Server root, e.g. ``"http://127.0.0.1:8765"``.
    payloads : Sequence[dict]
        ``/compile`` payloads, issued round-robin (request ``i`` sends
        ``payloads[i % len(payloads)]``) so the mix is deterministic.
    requests : int, optional
        Total number of requests across all workers.
    concurrency : int, optional
        Number of closed-loop worker threads.
    timeout : float, optional
        Per-request socket timeout in seconds (a hung server fails the
        request instead of stalling the closed loop forever).
    retries : int, optional
        Retries per request after a connection failure or HTTP 503 (the
        fleet front end briefly mid-recovery); compiles are content-hash
        idempotent, so a retried POST is safe.
    kill_worker_after : int | None, optional
        Fault injection: after this many requests have *completed*, SIGKILL
        one healthy compile worker of the fleet serving ``url``.  The
        target must be a fleet front end (its ``/healthz`` lists worker
        pids); the killed worker is recorded on the report.
    kill_front_end_after : int | None, optional
        Failover drill: after this many requests have *completed*, SIGKILL
        the front-end process itself (the first address when ``url`` lists
        several).  Pair with a multi-address ``url`` and generous
        ``retries`` so in-flight requests fail over to the promoted
        standby; every request carries a unique ``X-Request-Id`` and the
        run only reports ``ok`` when no id was accepted twice.
    poison_payload : dict | None, optional
        Chaos testing: send this payload as the *last* request of the run
        (index ``requests - 1``) instead of the round-robin mix.  A 422
        answer whose body carries ``"poisoned": true`` (the fleet's
        poison-quarantine response) is counted in ``report.poisoned``
        rather than as an error.

    Returns
    -------
    LoadReport
        Aggregated latencies, throughput, error and cache-hit counters.
    """
    if not payloads:
        raise ValueError("loadgen needs at least one payload")
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    if kill_worker_after is not None and not 0 <= kill_worker_after < requests:
        raise ValueError(
            f"kill_worker_after must be in [0, {requests}), got {kill_worker_after}"
        )
    if kill_front_end_after is not None and not 0 <= kill_front_end_after < requests:
        raise ValueError(
            f"kill_front_end_after must be in [0, {requests}), "
            f"got {kill_front_end_after}"
        )

    report = LoadReport()
    lock = threading.Lock()
    counter = itertools.count()
    kill_pending = kill_worker_after is not None
    kill_fe_pending = kill_front_end_after is not None
    accepted_ids: set[str] = set()

    def worker() -> None:
        """One closed-loop client: issue requests until the counter runs out."""
        nonlocal kill_pending, kill_fe_pending
        client = ServiceClient(url, timeout=timeout, retries=retries)
        while True:
            index = next(counter)
            if index >= requests:
                return
            if poison_payload is not None and index == requests - 1:
                payload = poison_payload
            else:
                payload = payloads[index % len(payloads)]
            started = time.perf_counter()
            error = None
            rejected = False
            quarantined = False
            cache_hit = False
            coalesced = False
            portfolio: dict = {}
            # A unique id per logical request: retried/hedged/failed-over
            # POSTs reuse it, so a response echoing an id already seen
            # means one acceptance was double-counted somewhere.
            request_id = uuid.uuid4().hex[:16]
            accepted_id: str | None = None
            try:
                body = client.compile_payload(
                    payload, headers={"X-Request-Id": request_id}
                )
                cache_hit = bool(body.get("cache_hit"))
                coalesced = bool(body.get("coalesced"))
                accepted_id = str(body.get("request_id") or request_id)
                portfolio = (body.get("result") or {}).get("portfolio") or {}
            except ServiceError as exc:
                if exc.status == 429:
                    # Admission control turned the request away on purpose;
                    # count it separately instead of as a server failure.
                    rejected = True
                elif exc.status == 422 and (exc.body or {}).get("poisoned"):
                    # The fleet quarantined the request as poisoned — the
                    # expected outcome of a chaos poison payload, not a
                    # server failure.
                    quarantined = True
                else:
                    error = str(exc)
            latency = time.perf_counter() - started
            fire_kill = False
            fire_fe_kill = False
            with lock:
                report.requests += 1
                if rejected:
                    report.admission_rejections += 1
                elif quarantined:
                    report.poisoned += 1
                elif error is None:
                    if accepted_id is not None:
                        if accepted_id in accepted_ids:
                            report.duplicate_accepts += 1
                        else:
                            accepted_ids.add(accepted_id)
                    report.latencies_seconds.append(latency)
                    report.cache_hits += int(cache_hit)
                    report.coalesced += int(coalesced)
                    if payload.get("deadline_ms") is not None:
                        report.deadline_requests += 1
                        report.deadline_misses += int(
                            bool(portfolio.get("deadline_missed"))
                        )
                    quality = portfolio.get("quality") or {}
                    if quality:
                        report.quality_cnots.append(
                            float(quality.get("num_emitter_emitter_cnots", 0.0))
                        )
                        report.quality_durations.append(
                            float(quality.get("duration", 0.0))
                        )
                else:
                    report.errors += 1
                    if len(report.first_errors) < 3:
                        report.first_errors.append(error)
                if kill_pending and report.requests > kill_worker_after:
                    kill_pending = False
                    fire_kill = True
                    report.killed_after_requests = report.requests
                if kill_fe_pending and report.requests > kill_front_end_after:
                    kill_fe_pending = False
                    fire_fe_kill = True
                    report.killed_front_end_after = report.requests
            if fire_kill:
                try:
                    # Outside the lock: the kill takes an HTTP round-trip.
                    _kill_one_worker(url, timeout, report, lock)
                except (ServiceError, ValueError, OSError) as exc:
                    # Surface the failed injection as a run failure instead
                    # of silently reporting a kill that never happened.
                    with lock:
                        report.errors += 1
                        report.first_errors.append(f"kill-worker failed: {exc}")
            if fire_fe_kill:
                try:
                    _kill_front_end(url, timeout, report, lock)
                except (ServiceError, ValueError, OSError) as exc:
                    with lock:
                        report.errors += 1
                        report.first_errors.append(f"kill-front-end failed: {exc}")

    started = time.perf_counter()
    threads = [
        threading.Thread(target=worker, name=f"repro-loadgen-{i}", daemon=True)
        for i in range(min(concurrency, requests))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.wall_seconds = time.perf_counter() - started
    return report
