"""Declarative compilation jobs and the worker that executes them.

A :class:`BatchJob` is a frozen, picklable, JSON-serialisable description of
one compilation experiment.  Jobs never carry live objects (graphs, configs,
hardware models) — only the recipe to rebuild them — so they can cross
process boundaries cheaply and their SHA-256 content hash identifies the
result for caching.

Job kinds:

* ``"comparison"`` — compile with the framework *and* the GraphiQ-like
  baseline under identical hardware assumptions; record the three
  hardware-aware metrics (#emitter-emitter CNOTs, duration, photon loss) and
  the wall-clock time of each compiler.
* ``"compile"`` — framework only; record the full result summary.
* ``"duration"`` — the Fig. 10(d-f) primitive: framework under
  ``N_e^limit = factor * N_e^min``, baseline under the matching explicit
  emitter cap.
* ``"lc_stem_edges"`` — the Fig. 11(b) primitive: partition with and without
  the local-complementation budget and count stem edges.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from repro.graphs.generators import (
    benchmark_graph,
    complete_graph,
    erdos_renyi_graph,
    ghz_graph,
    linear_cluster,
    percolated_lattice,
    random_regular_graph,
    repeater_graph_state,
    ring_graph,
    rotated_surface_code_graph,
    star_graph,
    steane_code_graph,
    watts_strogatz_graph,
    waxman_graph,
)
from repro.core.config import CompilerConfig
from repro.core.ordering import ORDERING_STRATEGIES
from repro.graphs.graph_state import GraphState
from repro.graphs.lazy import STREAM_FAMILIES
from repro.hardware.models import get_hardware_model
from repro.utils.backend import BACKENDS
from repro.utils.faults import FaultPoint

__all__ = [
    "GraphSpec",
    "BatchJob",
    "JOB_KINDS",
    "run_job",
    "JournalEntry",
    "PendingJournal",
    "StaleEpochError",
    "fsync_dir",
]

#: Graph families a :class:`GraphSpec` can rebuild.
GRAPH_FAMILIES = (
    "lattice",
    "tree",
    "random",
    "waxman",
    "linear",
    "ring",
    "star",
    "complete",
    "repeater",
    # Scenario zoo (random topologies).
    "regular",
    "smallworld",
    "erdos",
    "percolated",
    # Scenario zoo (GHZ / QEC-flavoured states).
    "ghz",
    "steane",
    "surface",
)

JOB_KINDS = ("comparison", "compile", "duration", "lc_stem_edges")

#: Admission/scheduling priority classes carried on the wire.  ``high``
#: bypasses deadline admission control, ``normal`` is admitted when the
#: estimated queue wait fits the deadline, ``low`` is rejected earlier
#: (when the wait exceeds half the deadline).
PRIORITY_CLASSES = ("high", "normal", "low")

#: Names a job's ``config_overrides`` may set.
_CONFIG_FIELDS = frozenset(f.name for f in fields(CompilerConfig))

#: Bump when a change invalidates previously cached results (new metrics,
#: changed semantics of an existing job kind, …).  v2: first-class
#: ``ordering`` field (emission-ordering strategy) on every job.  v3: the
#: reduction engine emits leftover DISCONNECT operations in deterministic
#: sorted order (one-pass ``disconnect_all_emitter_edges``), which reorders
#: trailing CZ gates and the timing-derived metrics of affected circuits.
#: v4: per-leaf ordering searches run in canonical space with a
#: canonical-key-derived RNG (isomorphism-memoized subgraph compilation),
#: which changes the winning orders — and hence circuits/metrics — of
#: partitioned graphs.  v5: first-class ``deadline_ms``/``priority`` wire
#: fields; deadline-bounded compile/comparison jobs run through the anytime
#: portfolio compiler (:mod:`repro.core.portfolio`), which changes the
#: winning circuit whenever a later rung beats the natural baseline.
#: v6: first-class ``compile_timeout_s`` wire field (the per-request
#: watchdog bound enforced by service workers).  v7: first-class
#: ``stream``/``stream_chunk`` wire fields — streamed ``compile`` jobs run
#: :func:`repro.core.streaming.compile_stream` from a lazy generator spec
#: instead of materialising the graph (new fields change every content
#: hash, and streamed records carry window/memory stats instead of a
#: circuit summary).  v8: the ``exact-partition`` portfolio rung is gone
#: (it repeated the ``natural`` rung on 2-10 vertex graphs), so portfolio
#: records of those graphs list one rung fewer.
JOB_SCHEMA_VERSION = 8


@dataclass(frozen=True)
class GraphSpec:
    """Recipe for one benchmark graph: ``(family, size, seed)``.

    Parameters
    ----------
    family : str
        One of :data:`GRAPH_FAMILIES`.  For ``"surface"`` the ``size`` is the
        code *distance* (odd, >= 3); for ``"steane"`` it must be 7 (the code
        is fixed); for ``"regular"`` the degree is 3 for even sizes and 4 for
        odd ones (so the degree sum stays even), requiring ``size >= 4``.
        Grid families (``"lattice"``, ``"percolated"``) round the size down
        to the closest ``rows x cols`` rectangle, so the built graph may have
        slightly fewer vertices than requested.
    size : int
        Target number of vertices (see the per-family caveats above).
    seed : int, optional
        RNG seed for the stochastic families; deterministic families ignore
        it (it still participates in the content hash).
    """

    family: str
    size: int
    seed: int = 11

    def __post_init__(self) -> None:
        if self.family not in GRAPH_FAMILIES:
            raise ValueError(
                f"unknown graph family {self.family!r}; expected one of "
                f"{GRAPH_FAMILIES}"
            )
        if self.size < 1:
            raise ValueError(f"size must be positive, got {self.size}")
        if self.family == "steane" and self.size != 7:
            raise ValueError("the Steane code graph has exactly 7 vertices")
        if self.family == "surface" and (self.size < 3 or self.size % 2 == 0):
            raise ValueError(
                f"surface size is the code distance (odd, >= 3), got {self.size}"
            )
        if self.family == "regular" and self.size < 4:
            raise ValueError("regular graphs need size >= 4")
        if self.family == "smallworld" and self.size < 3:
            raise ValueError("smallworld graphs need size >= 3")

    def build(self) -> GraphState:
        """Construct the graph exactly as the evaluation harness would."""
        if self.family in ("lattice", "tree", "random"):
            return benchmark_graph(self.family, self.size, seed=self.seed)
        if self.family == "waxman":
            return waxman_graph(self.size, seed=self.seed)
        if self.family == "linear":
            return linear_cluster(self.size)
        if self.family == "ring":
            return ring_graph(self.size)
        if self.family == "star":
            return star_graph(self.size)
        if self.family == "complete":
            return complete_graph(self.size)
        if self.family == "regular":
            degree = 3 if self.size % 2 == 0 else 4
            return random_regular_graph(self.size, degree=degree, seed=self.seed)
        if self.family == "smallworld":
            k = min(4, self.size - 1)
            return watts_strogatz_graph(self.size, k=max(2, k), seed=self.seed)
        if self.family == "erdos":
            return erdos_renyi_graph(self.size, seed=self.seed)
        if self.family == "percolated":
            import math

            rows = max(2, int(math.floor(math.sqrt(self.size))))
            cols = max(2, self.size // rows)
            return percolated_lattice(rows, cols, seed=self.seed)
        if self.family == "ghz":
            return ghz_graph(self.size)
        if self.family == "steane":
            return steane_code_graph()
        if self.family == "surface":
            return rotated_surface_code_graph(self.size)
        return repeater_graph_state(self.size)


@dataclass(frozen=True)
class BatchJob:
    """One unit of work for the batch pipeline.

    Parameters
    ----------
    graph : GraphSpec
        The target graph recipe.
    kind : str, optional
        One of :data:`JOB_KINDS`.
    emitter_limit_factor : float, optional
        The paper's ``N_e^limit / N_e^min`` knob.
    hardware : str, optional
        Hardware preset name (see
        :func:`repro.hardware.models.get_hardware_model`).
    backend : str | None, optional
        GF(2)/tableau backend pinned for this job (``None`` keeps the worker
        process default).
    ordering : str | None, optional
        Emission-ordering strategy (one of
        :data:`repro.core.ordering.ORDERING_STRATEGIES`); ``None`` keeps the
        compiler-config default (``"natural"``).
    verify : bool, optional
        Re-simulate compiled circuits on the stabilizer tableau.
    deadline_ms : float | None, optional
        Anytime deadline in milliseconds: ``compile``/``comparison`` jobs
        run the framework side through the portfolio compiler
        (:mod:`repro.core.portfolio`), returning the verified best-so-far
        at the deadline and recording a ``portfolio`` section.  The service
        additionally applies admission control against this deadline.
    priority : str, optional
        One of :data:`PRIORITY_CLASSES` (admission-control class).
    compile_timeout_s : float | None, optional
        Per-request wall-clock watchdog bound enforced by service workers:
        a compile that produces no outcome within this many seconds is
        answered with a structured timeout error (HTTP 504) instead of
        hanging the request.  ``None`` keeps the worker's configured
        default (``repro serve --compile-timeout-s``).
    stream : bool, optional
        Run the job through the streaming partition-compile pipeline
        (:func:`repro.core.streaming.compile_stream`): the graph is built
        region by region from a lazy generator spec and never materialised,
        so peak memory is bounded by the window, not the graph.  Only
        ``compile`` jobs of the streamable families
        (:data:`repro.graphs.lazy.STREAM_FAMILIES`) accept it; the record
        carries window/memory statistics instead of a circuit summary.
    stream_chunk : int | None, optional
        Region granularity for streamed jobs (rows per region for the
        lattice families, photons per region for GHZ).  ``None`` uses the
        family default of :func:`repro.graphs.lazy.make_stream_spec`.
        Requires ``stream=True``.
    config_overrides : tuple[tuple[str, object], ...], optional
        Extra :class:`repro.core.config.CompilerConfig` fields applied on top
        of the fast benchmark profile, as a sorted tuple of ``(name, value)``
        pairs (kept hashable for caching).  Names that are not
        ``CompilerConfig`` fields raise ``ValueError`` at construction.
    """

    graph: GraphSpec
    kind: str = "comparison"
    emitter_limit_factor: float = 1.5
    hardware: str = "quantum_dot"
    backend: str | None = None
    ordering: str | None = None
    verify: bool = False
    deadline_ms: float | None = None
    priority: str = "normal"
    compile_timeout_s: float | None = None
    stream: bool = False
    stream_chunk: int | None = None
    config_overrides: tuple[tuple[str, object], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(
                f"unknown job kind {self.kind!r}; expected one of {JOB_KINDS}"
            )
        if self.deadline_ms is not None:
            if self.deadline_ms <= 0:
                raise ValueError(
                    f"deadline_ms must be > 0, got {self.deadline_ms}"
                )
            if self.kind not in ("comparison", "compile"):
                raise ValueError(
                    "deadline_ms only applies to 'comparison'/'compile' jobs, "
                    f"not {self.kind!r}"
                )
        if self.priority not in PRIORITY_CLASSES:
            raise ValueError(
                f"priority must be one of {PRIORITY_CLASSES}, "
                f"got {self.priority!r}"
            )
        if self.compile_timeout_s is not None and self.compile_timeout_s <= 0:
            raise ValueError(
                f"compile_timeout_s must be > 0, got {self.compile_timeout_s}"
            )
        if self.stream:
            if self.kind != "compile":
                raise ValueError(
                    f"stream=True only applies to 'compile' jobs, not {self.kind!r}"
                )
            if self.graph.family not in STREAM_FAMILIES:
                raise ValueError(
                    f"stream=True requires a streamable family "
                    f"{STREAM_FAMILIES}, got {self.graph.family!r}"
                )
            if self.deadline_ms is not None:
                raise ValueError(
                    "stream=True jobs do not support deadline_ms (the "
                    "streaming pipeline has no anytime portfolio)"
                )
        if self.stream_chunk is not None:
            if not self.stream:
                raise ValueError("stream_chunk requires stream=True")
            if self.stream_chunk < 1:
                raise ValueError(
                    f"stream_chunk must be >= 1, got {self.stream_chunk}"
                )
        if self.backend is not None and self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS} or None, got {self.backend!r}"
            )
        if self.ordering is not None and self.ordering not in ORDERING_STRATEGIES:
            raise ValueError(
                f"ordering must be one of {ORDERING_STRATEGIES} or None, "
                f"got {self.ordering!r}"
            )
        get_hardware_model(self.hardware)  # validate the preset name early
        object.__setattr__(
            self, "config_overrides", tuple(sorted(tuple(self.config_overrides)))
        )
        unknown = {name for name, _ in self.config_overrides} - _CONFIG_FIELDS
        if unknown:
            raise ValueError(
                f"unknown config_overrides names {sorted(unknown)}; expected "
                "CompilerConfig fields"
            )

    def with_overrides(self, **kwargs) -> "BatchJob":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def as_dict(self) -> dict:
        """JSON-serialisable description of the job (stable key order)."""
        data = asdict(self)
        data["config_overrides"] = [list(pair) for pair in self.config_overrides]
        data["schema_version"] = JOB_SCHEMA_VERSION
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "BatchJob":
        """Rebuild a job from its :meth:`as_dict` form (or any JSON payload).

        This is the wire format of the compilation service: the ``graph``
        entry may be a nested ``{"family", "size", "seed"}`` mapping, or the
        three keys may be given flat at the top level.  Unknown keys raise
        ``ValueError`` so that client typos fail loudly instead of silently
        compiling the wrong thing.

        Parameters
        ----------
        data : dict
            A job description, e.g. parsed from a JSON request body.

        Returns
        -------
        BatchJob
            The validated job (construction re-runs all field validation).
        """
        if not isinstance(data, dict):
            raise ValueError(f"job payload must be a mapping, got {type(data).__name__}")
        payload = dict(data)
        payload.pop("schema_version", None)
        graph = payload.pop("graph", None)
        if graph is None:
            graph = {
                key: payload.pop(key)
                for key in ("family", "size", "seed")
                if key in payload
            }
        if not isinstance(graph, dict) or "family" not in graph or "size" not in graph:
            raise ValueError(
                "job payload needs a graph: either {'graph': {'family', 'size', "
                "'seed'}} or flat 'family'/'size'/'seed' keys"
            )
        unknown_graph = set(graph) - {"family", "size", "seed"}
        if unknown_graph:
            raise ValueError(f"unknown graph keys: {sorted(unknown_graph)}")
        allowed = {
            "kind",
            "emitter_limit_factor",
            "hardware",
            "backend",
            "ordering",
            "verify",
            "deadline_ms",
            "priority",
            "compile_timeout_s",
            "stream",
            "stream_chunk",
            "config_overrides",
        }
        unknown = set(payload) - allowed
        if unknown:
            raise ValueError(f"unknown job keys: {sorted(unknown)}")
        overrides = payload.pop("config_overrides", ())
        if isinstance(overrides, dict):
            # The natural JSON-object encoding ({"field": value, ...}).
            overrides = sorted(overrides.items())
        try:
            overrides = tuple((str(name), value) for name, value in overrides)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                "config_overrides must be a mapping or a sequence of "
                "(name, value) pairs"
            ) from exc
        spec = GraphSpec(
            family=str(graph["family"]),
            size=int(graph["size"]),
            seed=int(graph.get("seed", 11)),
        )
        return cls(graph=spec, config_overrides=overrides, **payload)

    @property
    def content_hash(self) -> str:
        """SHA-256 over the canonical JSON description; the cache key."""
        canonical = json.dumps(self.as_dict(), sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @property
    def label(self) -> str:
        """Short human-readable identifier used in reports and tables."""
        base = (
            f"{self.kind}:{self.graph.family}-{self.graph.size}"
            f"@{self.emitter_limit_factor}x#{self.graph.seed}"
        )
        if self.ordering is not None:
            base += f"+{self.ordering}"
        if self.stream:
            base += "&stream"
        if self.deadline_ms is not None:
            base += f"~{self.deadline_ms:g}ms"
        if self.priority != "normal":
            base += f"!{self.priority}"
        return base


# --------------------------------------------------------------------------- #
# Worker
# --------------------------------------------------------------------------- #

#: Fires at the start of every job execution; ``crash``/``sleep`` rules
#: with a ``match`` on the job label simulate poison jobs and pathological
#: instances deterministically.
_FAULT_COMPILE = FaultPoint("compile.step")

#: Fires before the pending journal fsyncs an appended record.
_FAULT_FSYNC = FaultPoint("journal.fsync")


def _job_config(job: BatchJob):
    """The fast benchmark profile of the evaluation harness, plus overrides."""
    from repro.evaluation.experiments import fast_config

    config = fast_config(
        emitter_limit_factor=job.emitter_limit_factor,
        hardware=get_hardware_model(job.hardware),
        verify=job.verify,
    )
    overrides = dict(job.config_overrides)
    overrides.setdefault("gf2_backend", job.backend)
    if job.ordering is not None:
        overrides.setdefault("ordering_strategy", job.ordering)
    if job.deadline_ms is not None:
        overrides.setdefault("deadline_ms", job.deadline_ms)
    return config.with_overrides(**overrides)


def _timed_compile(compiler, graph) -> tuple[object, float]:
    start = time.perf_counter()
    result = compiler.compile(graph)
    return result, time.perf_counter() - start


def run_job(job: BatchJob) -> dict:
    """Execute one job and return its JSON-serialisable result record.

    This function is pure apart from wall-clock timing fields (prefixed
    ``seconds_``): the metric fields of the record are a deterministic
    function of the job description, which is what makes content-hash caching
    sound.  It is defined at module level so that
    :class:`concurrent.futures.ProcessPoolExecutor` can pickle it.
    """
    from repro.baseline.naive import BaselineCompiler
    from repro.core.compiler import EmitterCompiler
    from repro.core.partition import GraphPartitioner
    from repro.utils.backend import use_backend

    _FAULT_COMPILE.hit(context=job.label)
    if job.stream:
        # Streaming path: never materialise the graph — build the lazy spec
        # and walk it region by region.  The record carries window/memory
        # statistics instead of a circuit summary.
        from repro.core.streaming import compile_stream
        from repro.graphs.lazy import make_stream_spec

        config = _job_config(job)
        spec = make_stream_spec(
            job.graph.family,
            job.graph.size,
            seed=job.graph.seed,
            chunk=job.stream_chunk,
        )
        with use_backend(config.gf2_backend):
            result = compile_stream(spec)
        return {
            "job": job.as_dict(),
            "label": job.label,
            "num_qubits": result.num_vertices,
            "num_edges": result.num_edges,
            "stream": {
                "family": result.family,
                "num_regions": result.num_regions,
                "window_capacity": result.window_capacity,
                "peak_window_photons": result.peak_window_photons,
                "num_emitters": result.num_emitters,
                "emitters_over_budget": result.emitters_over_budget,
                "num_operations": result.num_operations,
                "num_emissions": result.num_emissions,
                "num_emitter_emitter_gates": result.num_emitter_emitter_gates,
                "op_counts": result.op_counts,
            },
            "seconds_ours": result.elapsed_seconds,
        }

    graph = job.graph.build()
    config = _job_config(job)
    record: dict = {
        "job": job.as_dict(),
        "label": job.label,
        "num_qubits": graph.num_vertices,
        "num_edges": graph.num_edges,
    }

    if job.kind in ("comparison", "compile"):
        if config.deadline_ms is not None or config.portfolio_budget is not None:
            # Anytime path: race the portfolio rungs under the job's budget
            # and record the winner plus the full anytime provenance.
            from repro.core.portfolio import PortfolioCompiler

            portfolio = PortfolioCompiler(config).compile(
                graph, family=job.graph.family
            )
            ours = portfolio.result
            record["ours"] = ours.summary()
            record["seconds_ours"] = portfolio.elapsed_seconds
            record["portfolio"] = portfolio.as_record()
        else:
            ours, ours_seconds = _timed_compile(EmitterCompiler(config), graph)
            record["ours"] = ours.summary()
            record["seconds_ours"] = ours_seconds
        if job.kind == "comparison":
            with use_backend(config.gf2_backend):
                baseline, baseline_seconds = _timed_compile(
                    BaselineCompiler(hardware=config.hardware, verify=job.verify),
                    graph,
                )
            record["baseline"] = baseline.metrics.as_dict()
            record["seconds_baseline"] = baseline_seconds
        return record

    if job.kind == "duration":
        import math

        ours, ours_seconds = _timed_compile(EmitterCompiler(config), graph)
        baseline_limit = max(
            1, math.ceil(job.emitter_limit_factor * ours.minimum_emitters)
        )
        with use_backend(config.gf2_backend):
            baseline, baseline_seconds = _timed_compile(
                BaselineCompiler(
                    hardware=config.hardware, emitter_limit=baseline_limit
                ),
                graph,
            )
        record["ours"] = ours.summary()
        record["baseline"] = baseline.metrics.as_dict()
        record["baseline_emitter_limit"] = baseline_limit
        record["seconds_ours"] = ours_seconds
        record["seconds_baseline"] = baseline_seconds
        return record

    # kind == "lc_stem_edges"
    with use_backend(config.gf2_backend):
        start = time.perf_counter()
        without_lc = GraphPartitioner(config.with_overrides(lc_budget=0)).partition(
            graph
        )
        with_lc = GraphPartitioner(config).partition(graph)
        elapsed = time.perf_counter() - start
    record["stem_edges_no_lc"] = without_lc.num_stem_edges
    record["stem_edges_with_lc"] = with_lc.num_stem_edges
    record["stem_edge_reduction"] = (
        without_lc.num_stem_edges - with_lc.num_stem_edges
    )
    record["seconds_partition"] = elapsed
    return record


# --------------------------------------------------------------------------- #
# Pending-queue journal
# --------------------------------------------------------------------------- #

#: Bump when the journal line format changes incompatibly.
JOURNAL_SCHEMA_VERSION = 1


class StaleEpochError(RuntimeError):
    """A write carried an epoch older than the journal's fenced minimum.

    Raised by :meth:`PendingJournal.append_replica` (and surfaced by the
    replication acceptor) when a deposed primary keeps streaming records
    after a standby promoted with a higher epoch.  The write is rejected
    so a split brain can never corrupt the replica journal.
    """

    def __init__(self, epoch: int, min_epoch: int):
        super().__init__(
            f"stale epoch {epoch} rejected (fence requires >= {min_epoch})"
        )
        self.epoch = epoch
        self.min_epoch = min_epoch


def fsync_dir(path: str | Path) -> None:
    """fsync a directory so a just-renamed entry survives a crash.

    ``os.replace`` makes the rename atomic but not durable: on some
    filesystems the *directory entry* itself is only persisted once the
    parent directory is fsynced.  Best-effort on platforms whose
    directories cannot be opened for reading (e.g. Windows).
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@dataclass
class JournalEntry:
    """One accepted-but-unfinished request recovered from a journal.

    Parameters
    ----------
    request_id : str
        The front end's request id (also the JSON-log correlation id).
    payload : dict
        The raw job payload, replayable through
        :meth:`BatchJob.from_dict`.
    content_hash : str
        The job's content hash at accept time (routing/cache key).
    attempts : int, optional
        Dispatch attempts recorded before the crash.
    """

    request_id: str
    payload: dict
    content_hash: str
    attempts: int = 0


class PendingJournal:
    """Append-only JSONL journal of accepted compile requests.

    The fleet front end (:mod:`repro.service.fleet`) writes one ``pending``
    line when it accepts a request and one ``done``/``failed`` line when the
    request finishes, flushing after every line.  If the process is killed
    mid-batch, :meth:`load_unfinished` recovers every request that was
    accepted but never completed, and the next fleet start replays them into
    the shared result cache so no accepted work is lost.

    Lines are self-describing JSON objects::

        {"op": "pending", "request_id": ..., "payload": {...},
         "content_hash": ..., "schema_version": 1}
        {"op": "attempt", "request_id": ..., "worker": 2}
        {"op": "done", "request_id": ...}
        {"op": "failed", "request_id": ..., "error": "..."}
        {"op": "poisoned", "request_id": ..., "attempts": 3, "error": "..."}

    A torn final line (the writer died mid-``write``) is tolerated and
    ignored on load.  ``failed`` marks *terminal* client-side errors
    (malformed payloads) that must not be replayed; ``poisoned`` marks
    requests quarantined after crashing ``max_job_attempts`` workers —
    also terminal, also never replayed.  ``attempt`` lines make the
    attempt count *authoritative across restarts*: replay resumes a
    request at its recorded attempt count, and :meth:`compact` carries
    the count forward on the rewritten ``pending`` line.

    Parameters
    ----------
    path : str | Path
        Journal file location; parent directories are created on demand.
    mirror : callable, optional
        Called with every record *after* the local fsync and before the
        append returns.  The HA primary installs the replication link's
        send here, so an acknowledged request is durable on both peers
        before the client ever sees a 200.  Exceptions propagate to the
        writer (a fenced primary must fail the request, not hide it).
    """

    def __init__(self, path: str | Path, mirror=None):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._handle = None
        self._mirror = mirror
        self._epoch = 0
        self._min_epoch = 0

    # ------------------------------------------------------------------ #

    def set_epoch(self, epoch: int) -> None:
        """Stamp every subsequent record with the leadership ``epoch``."""
        self._epoch = int(epoch)

    def set_mirror(self, mirror) -> None:
        """Install (or clear) the synchronous replication hook."""
        self._mirror = mirror

    def fence(self, min_epoch: int) -> None:
        """Reject subsequent replica appends below ``min_epoch``."""
        self._min_epoch = max(self._min_epoch, int(min_epoch))

    def _append(self, record: dict) -> None:
        if self._epoch and "epoch" not in record:
            record["epoch"] = self._epoch
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = self.path.open("a", encoding="utf-8")
            self._handle.write(line + "\n")
            self._handle.flush()
            _FAULT_FSYNC.hit(context=str(record.get("op", "")))
            os.fsync(self._handle.fileno())
            if self._mirror is not None:
                self._mirror(record)

    def append_replica(self, record: dict) -> None:
        """Append one replicated record received from the primary.

        Raises
        ------
        StaleEpochError
            If the record's epoch is below the fence set by
            :meth:`fence` (split-brain protection after promotion).
        """
        epoch = int(record.get("epoch", 0))
        if epoch < self._min_epoch:
            raise StaleEpochError(epoch, self._min_epoch)
        self._append(dict(record))

    def record_pending(
        self, request_id: str, payload: dict, content_hash: str, attempts: int = 0
    ) -> None:
        """Journal the acceptance of one request (before dispatch).

        ``attempts`` carries a previously recorded attempt count forward
        (compaction and replay-of-replay); fresh requests leave it at 0.
        """
        record = {
            "op": "pending",
            "request_id": request_id,
            "payload": payload,
            "content_hash": content_hash,
            "schema_version": JOURNAL_SCHEMA_VERSION,
        }
        if attempts:
            record["attempts"] = attempts
        self._append(record)

    def record_attempt(self, request_id: str, worker: int) -> None:
        """Journal one dispatch attempt (so replay knows the attempt count)."""
        self._append({"op": "attempt", "request_id": request_id, "worker": worker})

    def record_done(self, request_id: str) -> None:
        """Journal the successful completion of a request."""
        self._append({"op": "done", "request_id": request_id})

    def record_failed(self, request_id: str, error: str) -> None:
        """Journal a *terminal* failure (bad payload — never replayed)."""
        self._append({"op": "failed", "request_id": request_id, "error": error})

    def record_poisoned(self, request_id: str, attempts: int, error: str) -> None:
        """Journal a poison-job quarantine (terminal — never replayed)."""
        self._append(
            {
                "op": "poisoned",
                "request_id": request_id,
                "attempts": attempts,
                "error": error,
            }
        )

    def close(self) -> None:
        """Close the underlying file handle (idempotent)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    # ------------------------------------------------------------------ #

    @staticmethod
    def load_unfinished(path: str | Path) -> list[JournalEntry]:
        """Replay a journal file and return the entries still unfinished.

        Parameters
        ----------
        path : str | Path
            Journal file; a missing file yields an empty list.

        Returns
        -------
        list[JournalEntry]
            Accepted requests with neither a ``done`` nor a ``failed`` line,
            in acceptance order.
        """
        path = Path(path)
        if not path.exists():
            return []
        pending: dict[str, JournalEntry] = {}
        with path.open("r", encoding="utf-8") as handle:
            for raw in handle:
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    record = json.loads(raw)
                except ValueError:
                    # Torn tail line from a killed writer; everything before
                    # it was flushed line-by-line, so just stop here.
                    break
                op = record.get("op")
                request_id = record.get("request_id")
                if not request_id:
                    continue
                if op == "pending":
                    pending[request_id] = JournalEntry(
                        request_id=request_id,
                        payload=record.get("payload") or {},
                        content_hash=str(record.get("content_hash", "")),
                        attempts=int(record.get("attempts", 0)),
                    )
                elif op == "attempt" and request_id in pending:
                    pending[request_id].attempts += 1
                elif op in ("done", "failed", "poisoned"):
                    pending.pop(request_id, None)
        return list(pending.values())

    def compact(self) -> int:
        """Rewrite the journal keeping only unfinished entries.

        Attempt counts are carried forward on the rewritten ``pending``
        lines, so compaction never resets a request's quarantine budget.

        Returns
        -------
        int
            Number of unfinished entries kept.
        """
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            unfinished = PendingJournal.load_unfinished(self.path)
            temp = self.path.with_suffix(self.path.suffix + ".compact")
            with temp.open("w", encoding="utf-8") as handle:
                for entry in unfinished:
                    record = {
                        "op": "pending",
                        "request_id": entry.request_id,
                        "payload": entry.payload,
                        "content_hash": entry.content_hash,
                        "schema_version": JOURNAL_SCHEMA_VERSION,
                    }
                    if entry.attempts:
                        record["attempts"] = entry.attempts
                    handle.write(
                        json.dumps(record, sort_keys=True, default=str) + "\n"
                    )
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp, self.path)
            # The rename is atomic but only durable once the parent
            # directory entry is persisted; without this a crash right
            # after compaction can resurrect the pre-compaction journal.
            fsync_dir(self.path.parent)
        return len(unfinished)
