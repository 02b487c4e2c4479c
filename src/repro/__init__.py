"""repro — a compilation framework for emitter-photonic graph states.

This package reproduces the DAC 2025 paper *"A Scalable and Robust
Compilation Framework for Emitter-Photonic Graph State"*: it compiles a target
photonic graph state into a deterministic generation circuit for emitter-based
hardware (quantum dots, colour centres, Rydberg atoms), minimising
emitter-emitter CNOTs, circuit duration and accumulated photon loss.

Quickstart::

    from repro import compile_graph, BaselineCompiler, lattice_graph

    graph = lattice_graph(4, 5)
    ours = compile_graph(graph)
    base = BaselineCompiler().compile(graph)
    print(ours.num_emitter_emitter_cnots, "vs", base.metrics.num_emitter_emitter_cnots)

All GF(2)/stabilizer kernels run on a word-packed ``np.uint64`` fast path by
default; the original dense implementation is kept as a bit-exact oracle and
selectable per call (``backend="dense"``), per compilation
(``CompilerConfig(gf2_backend=...)``), or process-wide::

    from repro import set_default_backend, use_backend

    set_default_backend("dense")          # or REPRO_GF2_BACKEND=dense
    with use_backend("packed"):
        ...                               # temporarily back on the fast path

Per-leaf ordering searches are memoized by exact graph isomorphism: the
partitioner emits the same small subgraph over and over up to relabeling, and
the subgraph compile cache (:mod:`repro.core.compile_cache`, on by default)
answers every repeat by remapping the cached result through the canonical
permutation — bit-identical circuits, a fraction of the cost.

Whole sweeps go through the batch pipeline — declarative picklable jobs,
process-pool fan-out and content-hash result caching::

    from repro import BatchJob, BatchRunner, GraphSpec

    jobs = [BatchJob(graph=GraphSpec("lattice", n)) for n in (10, 20, 30)]
    report = BatchRunner(max_workers=4, cache_dir=".repro-cache").run(jobs)
    print(report.summary())               # second run reports cache hits

or, from the shell (the figure sweeps use the same machinery)::

    repro batch --families lattice tree --sizes 10 20 30 \\
        --workers 4 --cache-dir .repro-cache

Long-running traffic goes through the compilation service — an HTTP server
(:mod:`repro.service`) that micro-batches concurrent requests onto the same
pipeline and serves repeats from a persistent disk cache::

    repro serve --port 8765 --cache-dir .repro-service-cache   # terminal 1
    repro loadgen --url http://127.0.0.1:8765 \\
        --families lattice surface --sizes 12 --requests 50    # terminal 2

(the load generator prints throughput, p50/p95/p99 latency and the cache-hit
rate; a second identical run is served almost entirely from cache).

Public API highlights:

* :class:`repro.core.compiler.EmitterCompiler` / :class:`repro.core.config.CompilerConfig`
  — the paper's framework.
* :class:`repro.baseline.naive.BaselineCompiler` — the GraphiQ-like baseline.
* :mod:`repro.graphs` — graph-state containers, generators, local
  complementation and entanglement measures.
* :mod:`repro.circuit` — the emitter-photon circuit IR, scheduling, metrics
  and stabilizer-backed verification.
* :mod:`repro.hardware` — hardware presets and the photon-loss model.
* :mod:`repro.evaluation` — the harness that regenerates every figure of the
  paper's evaluation.
* :mod:`repro.pipeline` — the batch-compilation pipeline (jobs, process-pool
  runner, content-hash cache) behind the sweeps and ``repro batch``.
* :mod:`repro.service` — the compilation server (``repro serve``), its
  micro-batcher, HTTP client and load generator (``repro loadgen``).
* :mod:`repro.utils.backend` / :mod:`repro.utils.gf2_packed` — the GF(2)
  backend switch and the word-packed kernels.
* :mod:`repro.core.streaming` / :mod:`repro.graphs.lazy` — streaming
  partition-compile of lazily-specified graph families with bounded peak
  memory (``repro compile --stream``).
"""

from repro.baseline.naive import BaselineCompiler, BaselineResult
from repro.circuit.circuit import Circuit
from repro.circuit.metrics import CircuitMetrics, compute_metrics
from repro.circuit.timing import GateDurations, Schedule, schedule_circuit
from repro.circuit.validation import (
    simulate_circuit,
    validate_circuit_constraints,
    verify_circuit_generates,
)
from repro.core.compiler import CompilationResult, EmitterCompiler, compile_graph
from repro.core.config import CompilerConfig
from repro.core.ordering import OrderingResult, optimize_emission_ordering
from repro.core.portfolio import PortfolioCompiler, PortfolioResult, compile_anytime
from repro.graphs.entanglement import cut_rank, height_function, minimum_emitters
from repro.graphs.generators import (
    benchmark_graph,
    complete_graph,
    erdos_renyi_graph,
    ghz_graph,
    lattice_graph,
    linear_cluster,
    percolated_lattice,
    random_regular_graph,
    random_tree,
    repeater_graph_state,
    ring_graph,
    rotated_surface_code_graph,
    star_graph,
    steane_code_graph,
    tree_graph,
    watts_strogatz_graph,
    waxman_graph,
)
from repro.graphs.graph_state import GraphState
from repro.graphs.incremental import CutRankEngine
from repro.hardware.loss import PhotonLossModel
from repro.hardware.models import (
    HardwareModel,
    get_hardware_model,
    nv_center,
    quantum_dot,
    rydberg_atom,
    siv_center,
)
from repro.pipeline.cache import ResultCache
from repro.pipeline.jobs import BatchJob, GraphSpec
from repro.pipeline.runner import BatchReport, BatchRunner
from repro.service.client import ServiceClient
from repro.service.server import CompileServer, CompileService, start_server
from repro.stabilizer.tableau import StabilizerState
from repro.utils.backend import (
    get_default_backend,
    set_default_backend,
    use_backend,
)

__version__ = "1.10.0"

__all__ = [
    "__version__",
    "BaselineCompiler",
    "BaselineResult",
    "Circuit",
    "CircuitMetrics",
    "compute_metrics",
    "GateDurations",
    "Schedule",
    "schedule_circuit",
    "simulate_circuit",
    "validate_circuit_constraints",
    "verify_circuit_generates",
    "CompilationResult",
    "EmitterCompiler",
    "compile_anytime",
    "compile_graph",
    "CompilerConfig",
    "OrderingResult",
    "optimize_emission_ordering",
    "cut_rank",
    "height_function",
    "minimum_emitters",
    "benchmark_graph",
    "complete_graph",
    "erdos_renyi_graph",
    "ghz_graph",
    "lattice_graph",
    "linear_cluster",
    "percolated_lattice",
    "random_regular_graph",
    "random_tree",
    "repeater_graph_state",
    "ring_graph",
    "rotated_surface_code_graph",
    "star_graph",
    "steane_code_graph",
    "tree_graph",
    "watts_strogatz_graph",
    "waxman_graph",
    "GraphState",
    "CutRankEngine",
    "PhotonLossModel",
    "PortfolioCompiler",
    "PortfolioResult",
    "HardwareModel",
    "get_hardware_model",
    "nv_center",
    "quantum_dot",
    "rydberg_atom",
    "siv_center",
    "StabilizerState",
    "BatchJob",
    "BatchReport",
    "BatchRunner",
    "GraphSpec",
    "ResultCache",
    "ServiceClient",
    "CompileServer",
    "CompileService",
    "start_server",
    "get_default_backend",
    "set_default_backend",
    "use_backend",
]
