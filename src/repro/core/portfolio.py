"""Anytime portfolio compilation with deadlines and per-instance configuration.

The static knobs of :class:`repro.core.config.CompilerConfig` make every
request pay for one fixed strategy.  This module races a small *portfolio*
of candidate configurations ("rungs") in increasing cost order instead:

1. ``natural`` — the cheapest strategy (natural ordering, cached-leaf
   reuse through the subgraph compile cache).  Always runs, so the
   portfolio always returns a result and is *never worse than the natural
   baseline* at any deadline.
2. ``greedy`` — the peak-height descent ordering search.
3. ``anneal`` — simulated-annealing refinement with an iteration count
   chosen per instance by the configuration selector.
4. ``alt-partition`` — an alternate partition shape (the no-LC
   partitioning), which wins on graphs whose stem structure the LC stage
   makes worse.

There is no exact-partition rung: the default partitioner already runs the
branch-and-bound MIP wherever it is tractable
(:data:`repro.core.partition.EXACT_PARTITION_MAX_VERTICES`), so such a rung
would only compile the ``natural`` rung again.

The rung list and its order are a deterministic function of cheap instance
features (:class:`InstanceFeatures`: size, degree profile, density, zoo
family) computed by the *configuration selector*
(:func:`plan_portfolio`), which records a decision trace so every choice is
auditable — the dynamic-algorithm-configuration theme of the CANDID DAC /
DAC-RL line applied to graph-state compilation.

Anytime semantics
-----------------

:meth:`PortfolioCompiler.compile` supports two budget modes:

* ``deadline_ms`` — wall-clock: rung 0 always runs; before each further
  rung the compiler checks ``elapsed + predicted rung cost <= deadline``
  (the prediction extrapolates from the rungs already timed), so the
  overshoot past the deadline is bounded by one mispredicted rung.
* ``budget`` — step-counted: run exactly the first ``budget`` rungs.
  Fully deterministic (no wall clock involved), which is what the
  differential test harness and reproducible experiments use.

Because budgets select a *prefix* of the same deterministic rung list and
the winner is the lexicographic minimum of
``(#emitter-emitter CNOTs, average photon-loss duration, duration)`` over
the rungs that ran, quality is monotonically non-degrading as the budget
(or deadline) grows, and identical budgets yield identical winning
circuits across runs and across the ``packed``/``dense`` backends (the
backends are bit-identical by construction).

Rungs that the budget skipped are carried on the result as *pending*; they
can be refined synchronously (:meth:`PortfolioCompiler.refine`) or handed
to the process-wide :class:`BackgroundRefiner`, which compiles them off
the request path.  Every rung compile runs with the subgraph compile cache
enabled, so background refinement warms the cache for future requests —
the fleet gets better under sustained load — and improvements found after
the response are counted in :func:`refinement_stats` (surfaced on every
compile service's ``/metrics``, and relayed by the fleet front end).
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

from repro.core.compiler import CompilationResult, EmitterCompiler
from repro.core.config import CompilerConfig
from repro.graphs.graph_state import GraphState

__all__ = [
    "BackgroundRefiner",
    "InstanceFeatures",
    "PortfolioCompiler",
    "PortfolioPlan",
    "PortfolioResult",
    "RungOutcome",
    "RungSpec",
    "compile_anytime",
    "get_background_refiner",
    "plan_portfolio",
    "quality_key",
    "refinement_stats",
    "reset_refinement_stats",
]

#: The lexicographic anytime objective, matching
#: :func:`repro.core.plan_scoring.score_sequence` and the recombination
#: stage of the compiler.
QualityKey = tuple[float, float, float]

#: Safety factor applied to the largest observed rung time when predicting
#: whether the next rung still fits inside the wall-clock deadline.
RUNG_COST_GROWTH = 1.5


def quality_key(result: CompilationResult) -> QualityKey:
    """The anytime objective of a compilation result.

    Returns ``(num_emitter_emitter_cnots, average_photon_loss_duration,
    duration)`` — lower is better, compared lexicographically.
    """
    metrics = result.metrics
    return (
        float(metrics.num_emitter_emitter_cnots),
        float(metrics.average_photon_loss_duration),
        float(metrics.duration),
    )


# --------------------------------------------------------------------------- #
# Instance features and the configuration selector
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class InstanceFeatures:
    """Cheap graph features the configuration selector keys on.

    All O(V + E) to compute — the selector must cost nothing compared to a
    single rung compile.
    """

    num_vertices: int
    num_edges: int
    density: float
    max_degree: int
    mean_degree: float
    family: str | None = None

    @classmethod
    def from_graph(
        cls, graph: GraphState, family: str | None = None
    ) -> "InstanceFeatures":
        """Extract the features of ``graph`` (``family`` is optional context)."""
        n = graph.num_vertices
        m = graph.num_edges
        degrees = [graph.degree(v) for v in graph.vertices()]
        max_degree = max(degrees, default=0)
        mean_degree = (sum(degrees) / n) if n else 0.0
        possible = n * (n - 1) / 2
        return cls(
            num_vertices=n,
            num_edges=m,
            density=(m / possible) if possible else 0.0,
            max_degree=max_degree,
            mean_degree=mean_degree,
            family=family,
        )

    def as_dict(self) -> dict:
        """JSON-serialisable view (recorded on the decision trace)."""
        return {
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "density": self.density,
            "max_degree": self.max_degree,
            "mean_degree": self.mean_degree,
            "family": self.family,
        }


@dataclass(frozen=True)
class RungSpec:
    """One candidate configuration of the portfolio.

    Parameters
    ----------
    name : str
        Stable identifier (``"natural"``, ``"greedy"``, ``"anneal"``,
        ``"alt-partition"``).
    overrides : tuple[tuple[str, object], ...]
        :class:`CompilerConfig` fields this rung replaces, as sorted
        ``(name, value)`` pairs (hashable, JSON-friendly).
    reason : str
        Why the selector included this rung (recorded on the trace).
    """

    name: str
    overrides: tuple[tuple[str, object], ...]
    reason: str

    def config(self, base: CompilerConfig) -> CompilerConfig:
        """The rung's compiler configuration on top of ``base``."""
        return base.with_overrides(**dict(self.overrides))


@dataclass(frozen=True)
class PortfolioPlan:
    """The selector's output: ordered rungs plus the recorded decision trace."""

    features: InstanceFeatures
    rungs: tuple[RungSpec, ...]
    decision_trace: tuple[dict, ...]


def _anneal_iterations(features: InstanceFeatures) -> tuple[int, str]:
    """Pick the anneal iteration count for an instance (with the reason)."""
    n = max(1, features.num_vertices)
    base = 1600 // max(1, n // 8)
    iterations = max(40, min(300, base))
    reason = f"~1600/(n/8) proposals capped to [40, 300] at n={n}"
    if features.density > 0.25:
        iterations = min(300, int(iterations * 1.5))
        reason += f"; +50% for dense graph (density {features.density:.2f})"
    if features.family in ("ghz", "steane", "star", "linear"):
        iterations = max(40, iterations // 2)
        reason += f"; halved for structured family {features.family!r}"
    return iterations, reason


def plan_portfolio(
    features: InstanceFeatures, config: CompilerConfig
) -> PortfolioPlan:
    """The per-instance configuration selector.

    Builds the deterministic rung list for one instance — which ordering
    strategies to race, how many anneal iterations, and which partition
    heuristic — from ``features``, recording one trace entry per decision.

    Parameters
    ----------
    features : InstanceFeatures
        Cheap features of the target graph.
    config : CompilerConfig
        The request's base configuration (rung overrides stack on top).

    Returns
    -------
    PortfolioPlan
        Rungs in increasing expected cost order plus the decision trace.
    """
    n = features.num_vertices
    rungs: list[RungSpec] = []
    trace: list[dict] = [{"decision": "features", **features.as_dict()}]

    def add(name: str, reason: str, **overrides) -> None:
        rungs.append(
            RungSpec(
                name=name,
                overrides=tuple(sorted(overrides.items())),
                reason=reason,
            )
        )
        trace.append(
            {"decision": "rung", "name": name, "reason": reason, **overrides}
        )

    add(
        "natural",
        "deadline floor: cheapest strategy, always runs first",
        ordering_strategy="natural",
    )
    if n >= 3:
        add(
            "greedy",
            f"peak-height descent pays off from n={n} >= 3",
            ordering_strategy="greedy",
        )
    else:
        trace.append(
            {
                "decision": "skip",
                "name": "greedy",
                "reason": f"trivial instance (n={n} < 3)",
            }
        )
    if n >= 4:
        iterations, why = _anneal_iterations(features)
        add(
            "anneal",
            why,
            ordering_strategy="anneal",
            ordering_iterations=iterations,
        )
    else:
        trace.append(
            {
                "decision": "skip",
                "name": "anneal",
                "reason": f"trivial instance (n={n} < 4)",
            }
        )
    if config.lc_budget > 0 and n > config.max_subgraph_size:
        add(
            "alt-partition",
            "race the no-LC partition shape against the LC-assisted one",
            lc_budget=0,
            ordering_strategy="greedy",
        )
    else:
        trace.append(
            {
                "decision": "skip",
                "name": "alt-partition",
                "reason": "single-block or LC already disabled",
            }
        )
    return PortfolioPlan(
        features=features, rungs=tuple(rungs), decision_trace=tuple(trace)
    )


# --------------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------------- #


@dataclass
class RungOutcome:
    """What happened to one rung of the portfolio."""

    spec: RungSpec
    status: str  # "ran" | "pending"
    seconds: float = 0.0
    quality: QualityKey | None = None
    improved: bool = False

    def as_record(self) -> dict:
        """JSON-serialisable view (timing under a ``seconds_`` key)."""
        return {
            "name": self.spec.name,
            "status": self.status,
            "reason": self.spec.reason,
            "quality": list(self.quality) if self.quality is not None else None,
            "improved": self.improved,
            "seconds_rung": self.seconds,
        }


@dataclass
class PortfolioResult:
    """The anytime compiler's output: best-so-far plus full provenance."""

    result: CompilationResult
    winner: str
    quality: QualityKey
    outcomes: list[RungOutcome]
    plan: PortfolioPlan
    deadline_ms: float | None
    budget: int | None
    deadline_missed: bool
    elapsed_seconds: float

    @property
    def pending(self) -> list[RungSpec]:
        """Rungs the budget skipped (refinement candidates)."""
        return [o.spec for o in self.outcomes if o.status == "pending"]

    def as_record(self) -> dict:
        """JSON-serialisable record for job results and the service.

        With a step-counted ``budget`` everything except the ``seconds_*``
        fields is a deterministic function of the job.  With a wall-clock
        ``deadline_ms`` the set of rungs that ran (and hence
        ``deadline_missed``/``pending_rungs``) depends on machine speed —
        a cached record replays the first execution's choices, which is
        sound because every choice is a verified-correct circuit.
        """
        return {
            "winner": self.winner,
            "quality": {
                "num_emitter_emitter_cnots": self.quality[0],
                "average_photon_loss_duration": self.quality[1],
                "duration": self.quality[2],
            },
            "deadline_ms": self.deadline_ms,
            "budget": self.budget,
            "deadline_missed": self.deadline_missed,
            "seconds_elapsed": self.elapsed_seconds,
            "rungs": [outcome.as_record() for outcome in self.outcomes],
            "pending_rungs": [spec.name for spec in self.pending],
            "decision_trace": [dict(entry) for entry in self.plan.decision_trace],
        }


# --------------------------------------------------------------------------- #
# The anytime compiler
# --------------------------------------------------------------------------- #


class PortfolioCompiler:
    """Race the portfolio rungs and return the verified best-so-far.

    Parameters
    ----------
    config : CompilerConfig | None, optional
        Base configuration; rung overrides stack on top of it.  Its
        ``deadline_ms``/``portfolio_budget`` fields are the default budget
        (overridable per :meth:`compile` call).
    """

    def __init__(self, config: CompilerConfig | None = None):
        self.config = config if config is not None else CompilerConfig()

    # ------------------------------------------------------------------ #

    def compile(
        self,
        target_graph: GraphState,
        deadline_ms: float | None = None,
        budget: int | None = None,
        family: str | None = None,
    ) -> PortfolioResult:
        """Compile ``target_graph`` under the anytime budget.

        Parameters
        ----------
        target_graph : GraphState
            The photonic graph state to generate.
        deadline_ms : float | None, optional
            Wall-clock deadline; ``None`` falls back to
            ``config.deadline_ms``.
        budget : int | None, optional
            Step-counted rung budget (deterministic); ``None`` falls back
            to ``config.portfolio_budget``.  When both budgets apply, both
            constrain the run.
        family : str | None, optional
            Zoo family of the graph, if known (a selector feature).

        Returns
        -------
        PortfolioResult
            The winning (lowest quality key) compilation plus per-rung
            outcomes, the decision trace and the pending-rung list.
        """
        deadline_ms = deadline_ms if deadline_ms is not None else self.config.deadline_ms
        budget = budget if budget is not None else self.config.portfolio_budget
        plan = plan_portfolio(
            InstanceFeatures.from_graph(target_graph, family=family), self.config
        )
        started = time.perf_counter()
        outcomes: list[RungOutcome] = []
        best: tuple[QualityKey, CompilationResult, str] | None = None
        slowest_rung = 0.0
        for index, spec in enumerate(plan.rungs):
            ran = len([o for o in outcomes if o.status == "ran"])
            if index > 0 and not self._admit_rung(
                ran, budget, deadline_ms, time.perf_counter() - started, slowest_rung
            ):
                outcomes.append(RungOutcome(spec=spec, status="pending"))
                continue
            result, seconds = self._run_rung(spec, target_graph)
            slowest_rung = max(slowest_rung, seconds)
            key = quality_key(result)
            improved = best is None or key < best[0]
            if improved:
                best = (key, result, spec.name)
            outcomes.append(
                RungOutcome(
                    spec=spec,
                    status="ran",
                    seconds=seconds,
                    quality=key,
                    improved=improved,
                )
            )
        assert best is not None  # rung 0 always runs
        elapsed = time.perf_counter() - started
        return PortfolioResult(
            result=best[1],
            winner=best[2],
            quality=best[0],
            outcomes=outcomes,
            plan=plan,
            deadline_ms=deadline_ms,
            budget=budget,
            deadline_missed=(
                deadline_ms is not None and elapsed * 1000.0 > deadline_ms
            ),
            elapsed_seconds=elapsed,
        )

    def refine(
        self, target_graph: GraphState, result: PortfolioResult
    ) -> PortfolioResult:
        """Run the pending rungs of ``result`` synchronously.

        Returns a new :class:`PortfolioResult` whose winner accounts for
        every rung; pending rungs that improve on the previous best bump
        the process-wide refinement-improvement counter.  Because refined
        rungs compile with the subgraph cache enabled, the improvements
        also warm the cache for future compiles of isomorphic leaves.
        """
        best = (result.quality, result.result, result.winner)
        outcomes = [
            RungOutcome(
                spec=o.spec,
                status=o.status,
                seconds=o.seconds,
                quality=o.quality,
                improved=o.improved,
            )
            for o in result.outcomes
        ]
        started = time.perf_counter()
        for outcome in outcomes:
            if outcome.status != "pending":
                continue
            compiled, seconds = self._run_rung(outcome.spec, target_graph)
            key = quality_key(compiled)
            improved = key < best[0]
            if improved:
                best = (key, compiled, outcome.spec.name)
            outcome.status = "ran"
            outcome.seconds = seconds
            outcome.quality = key
            outcome.improved = improved
            _REFINEMENT_STATS.record_rung(improved)
        return PortfolioResult(
            result=best[1],
            winner=best[2],
            quality=best[0],
            outcomes=outcomes,
            plan=result.plan,
            deadline_ms=result.deadline_ms,
            budget=result.budget,
            deadline_missed=result.deadline_missed,
            elapsed_seconds=result.elapsed_seconds
            + (time.perf_counter() - started),
        )

    # ------------------------------------------------------------------ #

    def _run_rung(
        self, spec: RungSpec, target_graph: GraphState
    ) -> tuple[CompilationResult, float]:
        """Compile one rung configuration, timed."""
        started = time.perf_counter()
        result = EmitterCompiler(spec.config(self.config)).compile(target_graph)
        return result, time.perf_counter() - started

    @staticmethod
    def _admit_rung(
        rungs_ran: int,
        budget: int | None,
        deadline_ms: float | None,
        elapsed_seconds: float,
        slowest_rung_seconds: float,
    ) -> bool:
        """Should the next rung run under the remaining budget?"""
        if budget is not None and rungs_ran >= budget:
            return False
        if deadline_ms is not None:
            predicted = slowest_rung_seconds * RUNG_COST_GROWTH
            if (elapsed_seconds + predicted) * 1000.0 > deadline_ms:
                return False
        return True


def compile_anytime(
    target_graph: GraphState,
    config: CompilerConfig | None = None,
    deadline_ms: float | None = None,
    budget: int | None = None,
    family: str | None = None,
    **overrides,
) -> PortfolioResult:
    """One-call anytime compilation (the portfolio counterpart of
    :func:`repro.core.compiler.compile_graph`).

    Parameters
    ----------
    target_graph : GraphState
        The photonic graph state to generate.
    config : CompilerConfig | None, optional
        Base configuration (defaults apply when ``None``).
    deadline_ms, budget : float | None, int | None, optional
        Anytime budgets (see :meth:`PortfolioCompiler.compile`).
    family : str | None, optional
        Zoo family of the graph, if known (a selector feature).
    **overrides
        Extra :class:`CompilerConfig` fields applied on top of ``config``.

    Returns
    -------
    PortfolioResult
        The best-so-far compilation at the budget.
    """
    if config is None:
        config = CompilerConfig()
    if overrides:
        config = config.with_overrides(**overrides)
    return PortfolioCompiler(config).compile(
        target_graph, deadline_ms=deadline_ms, budget=budget, family=family
    )


# --------------------------------------------------------------------------- #
# Background refinement
# --------------------------------------------------------------------------- #


@dataclass
class RefinementStats:
    """Thread-safe counters for background/synchronous refinement."""

    rungs: int = 0
    improvements: int = 0
    submitted: int = 0
    dropped: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record_rung(self, improved: bool) -> None:
        """Count one refined rung (and whether it beat the served result)."""
        with self._lock:
            self.rungs += 1
            if improved:
                self.improvements += 1

    def record_submit(self, accepted: bool) -> None:
        """Count one refinement submission (or a queue-full drop)."""
        with self._lock:
            if accepted:
                self.submitted += 1
            else:
                self.dropped += 1

    def as_dict(self) -> dict[str, int]:
        """Plain-dict snapshot of the counters."""
        with self._lock:
            return {
                "refinement_rungs": self.rungs,
                "refinement_improvements": self.improvements,
                "refinement_submitted": self.submitted,
                "refinement_dropped": self.dropped,
            }

    def reset(self) -> None:
        """Zero every counter (tests)."""
        with self._lock:
            self.rungs = 0
            self.improvements = 0
            self.submitted = 0
            self.dropped = 0


_REFINEMENT_STATS = RefinementStats()


def refinement_stats() -> RefinementStats:
    """The process-wide refinement counters."""
    return _REFINEMENT_STATS


def reset_refinement_stats() -> None:
    """Zero the process-wide refinement counters (tests)."""
    _REFINEMENT_STATS.reset()


class BackgroundRefiner:
    """Run pending portfolio rungs off the request path.

    One daemon worker thread drains a bounded queue of ``(job, pending
    rung names, served quality)`` items: each item rebuilds its graph and
    configuration from the job description, compiles the pending rungs
    with the subgraph cache enabled (warming it for future requests), and
    counts rungs that beat the served quality as refinement improvements.

    The queue is bounded and submissions never block — under overload
    refinement work is *dropped* (counted in :func:`refinement_stats`),
    never queued unboundedly.

    Parameters
    ----------
    max_queue : int, optional
        Maximum queued refinement items before submissions are dropped.
    """

    def __init__(self, max_queue: int = 64):
        self._queue: queue.Queue = queue.Queue(maxsize=int(max_queue))
        self._idle = threading.Event()
        self._idle.set()
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the worker thread (queued items are left unprocessed)."""
        self._stop.set()
        with self._lock:
            thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=timeout)
        with self._lock:
            self._thread = None
        self._stop.clear()

    def _ensure_thread(self) -> None:
        with self._lock:
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._loop, name="repro-portfolio-refiner", daemon=True
                )
                self._thread.start()

    def submit_job(
        self, job, pending: list[str], served_quality: tuple | list | None
    ) -> bool:
        """Queue the pending rungs of one served job for refinement.

        Parameters
        ----------
        job : repro.pipeline.jobs.BatchJob
            The served job (its description rebuilds graph and config).
        pending : list[str]
            Names of the rungs the request budget skipped.
        served_quality : tuple | list | None
            The quality key of the served result (baseline for the
            improvement counter); ``None`` counts every rung as
            non-improving.

        Returns
        -------
        bool
            True when queued, False when dropped (queue full or nothing
            pending).
        """
        if not pending:
            return False
        try:
            self._queue.put_nowait((job, tuple(pending), served_quality))
        except queue.Full:
            _REFINEMENT_STATS.record_submit(accepted=False)
            return False
        _REFINEMENT_STATS.record_submit(accepted=True)
        self._idle.clear()
        self._ensure_thread()
        return True

    def drain(self, timeout: float = 30.0) -> bool:
        """Wait until the queue is empty and the worker idle (tests).

        Returns
        -------
        bool
            True when everything submitted so far has been processed.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self._queue.empty() and self._idle.is_set():
                return True
            time.sleep(0.01)
        return self._queue.empty() and self._idle.is_set()

    # ------------------------------------------------------------------ #

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                item = self._queue.get(timeout=0.1)
            except queue.Empty:
                self._idle.set()
                continue
            try:
                self._refine_one(*item)
            except Exception:  # noqa: BLE001 - refinement is best-effort
                pass
            finally:
                if self._queue.empty():
                    self._idle.set()

    @staticmethod
    def _refine_one(job, pending: tuple[str, ...], served_quality) -> None:
        """Compile the pending rungs of one job and count improvements."""
        from repro.pipeline.jobs import _job_config

        graph = job.graph.build()
        config = _job_config(job)
        compiler = PortfolioCompiler(config)
        plan = plan_portfolio(
            InstanceFeatures.from_graph(graph, family=job.graph.family), config
        )
        if isinstance(served_quality, dict):
            served_quality = (
                served_quality.get("num_emitter_emitter_cnots", 0.0),
                served_quality.get("average_photon_loss_duration", 0.0),
                served_quality.get("duration", 0.0),
            )
        baseline: QualityKey | None = (
            tuple(float(v) for v in served_quality)
            if served_quality is not None
            else None
        )
        for spec in plan.rungs:
            if spec.name not in pending:
                continue
            result, _seconds = compiler._run_rung(spec, graph)
            key = quality_key(result)
            improved = baseline is not None and key < baseline
            if improved:
                baseline = key
            _REFINEMENT_STATS.record_rung(improved)


_BACKGROUND_REFINER: BackgroundRefiner | None = None
_BACKGROUND_REFINER_LOCK = threading.Lock()


def get_background_refiner() -> BackgroundRefiner:
    """The process-wide background refiner (created on first use)."""
    global _BACKGROUND_REFINER
    with _BACKGROUND_REFINER_LOCK:
        if _BACKGROUND_REFINER is None:
            _BACKGROUND_REFINER = BackgroundRefiner()
        return _BACKGROUND_REFINER
