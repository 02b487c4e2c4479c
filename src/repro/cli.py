"""Command-line interface.

Six subcommands cover the common workflows:

* ``repro compile`` — compile one benchmark graph and print the circuit
  metrics (optionally the gate listing);
* ``repro figure`` — regenerate one of the paper's figures and print the
  data table;
* ``repro batch`` — run a whole sweep of compilation jobs through the batch
  pipeline, optionally across processes and with content-hash result caching;
* ``repro serve`` — run the long-running compilation server (HTTP + JSON,
  micro-batching, persistent result cache); ``--workers N > 1`` runs the
  supervised multi-process fleet (content-hash routing, heartbeat restarts,
  ``GET /metrics``, journaled requests, SIGTERM graceful drain);
* ``repro loadgen`` — drive a server closed-loop and report throughput,
  latency percentiles and the cache-hit rate; ``--kill-worker-after K``
  SIGKILLs one fleet worker mid-load (the fault-injection CI gate);
* ``repro bench`` — run the emitter perf-trajectory benchmark
  (naive-vs-incremental height function, dense-vs-packed end-to-end compile,
  cold-vs-warm subgraph compile cache) and write ``BENCH_emitters.json``.

Examples::

    repro --version
    repro compile --family lattice --size 20
    repro compile --family tree --size 30 --baseline --verify
    repro compile --family random --size 24 --ordering anneal --verify
    repro figure fig10a
    repro figure zoo
    repro batch --families lattice tree --sizes 10 20 --seeds 11 12 --workers 4
    repro batch --families regular smallworld erdos --sizes 12 16 --cache-dir .repro-cache
    repro batch --families ghz surface --sizes 9 --ordering greedy
    repro serve --port 8765 --cache-dir .repro-service-cache
    repro serve --port 8765 --subgraph-cache-dir .repro-subgraph-cache
    repro serve --port 8765 --workers 3 --journal .repro-fleet-journal.jsonl
    repro loadgen --url http://127.0.0.1:8765 --families lattice --sizes 10 14
    repro loadgen --url http://127.0.0.1:8765 --requests 36 --kill-worker-after 6
    repro serve --workers 3 --port 8765 --replicate-to 127.0.0.1:8790 \\
        --lease .repro-lease.json
    repro serve --standby --workers 3 --port 8765 \\
        --replicate-to 127.0.0.1:8790 --lease .repro-lease.json \\
        --journal .repro-standby-journal.jsonl
    repro loadgen --url http://127.0.0.1:8765 --requests 36 --retries 20 \\
        --kill-front-end-after 6
    repro loadgen --self-serve --cache-dir .repro-service-cache --requests 40
    repro loadgen --self-serve --self-serve-workers 3 --requests 36
    repro loadgen --self-serve --deadline-ms 2000 --max-deadline-miss-rate 0.1
    repro loadgen --self-serve --self-serve-workers 2 --requests 24 \\
        --fault-schedule tests/data/chaos_schedule.json --poison-seed 666
    repro compile --family random --size 24 --deadline-ms 500
    repro bench --sizes 64 128 256 --compile-sizes 32 64 128 --output BENCH_emitters.json
    repro bench --portfolio-sizes 16 24 --portfolio-deadlines-ms 50 500 5000
    repro bench --cache-sizes 128 256 --output BENCH_emitters.json

Every subcommand exits with its own non-zero code on failure so scripts can
tell what broke: ``2`` usage (argparse), ``3`` compile, ``4`` figure, ``5``
batch, ``6`` serve, ``7`` loadgen, ``8`` bench.

(The ``repro-emitter`` alias of the console script is kept for backwards
compatibility.)
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.baseline.naive import BaselineCompiler
from repro.core.compiler import EmitterCompiler
from repro.evaluation.experiments import fast_config, sweep_jobs
from repro.evaluation import figures
from repro.evaluation.report import render_table
from repro.core.ordering import ORDERING_STRATEGIES
from repro.graphs.generators import benchmark_graph
from repro.pipeline.jobs import GRAPH_FAMILIES, JOB_KINDS, PRIORITY_CLASSES
from repro.pipeline.runner import BatchRunner
from repro.utils.backend import BACKENDS

__all__ = [
    "main",
    "build_parser",
    "EXIT_OK",
    "EXIT_COMPILE",
    "EXIT_FIGURE",
    "EXIT_BATCH",
    "EXIT_SERVE",
    "EXIT_LOADGEN",
    "EXIT_BENCH",
]

#: Exit codes, one per subcommand, so callers can tell failures apart
#: (argparse itself exits with 2 on usage errors).
EXIT_OK = 0
EXIT_COMPILE = 3
EXIT_FIGURE = 4
EXIT_BATCH = 5
EXIT_SERVE = 6
EXIT_LOADGEN = 7
EXIT_BENCH = 8

_FIGURES = {
    "fig5": lambda args: figures.figure5_emitter_usage(),
    "fig10a": lambda args: figures.figure10_cnot("lattice", sizes=args.sizes),
    "fig10b": lambda args: figures.figure10_cnot("tree", sizes=args.sizes),
    "fig10c": lambda args: figures.figure10_cnot("random", sizes=args.sizes),
    "fig10d": lambda args: figures.figure10_duration("lattice", sizes=args.sizes),
    "fig10e": lambda args: figures.figure10_duration("tree", sizes=args.sizes),
    "fig10f": lambda args: figures.figure10_duration("random", sizes=args.sizes),
    "fig11a": lambda args: figures.figure11_loss(),
    "fig11b": lambda args: figures.figure11_lc_edges(),
    "runtime": lambda args: figures.runtime_scaling(),
    "zoo": lambda args: figures.scenario_zoo(size=_single_zoo_size(args.sizes)),
}


def _single_zoo_size(sizes: list[int] | None) -> int | None:
    """The zoo figure probes one size point; reject silent multi-size drops."""
    if not sizes:
        return None
    if len(sizes) > 1:
        raise ValueError(
            "figure zoo sweeps families at a single size point; "
            f"pass one --sizes value, got {sizes}"
        )
    return sizes[0]


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing)."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Emitter-photonic graph-state compilation framework (DAC 2025 reproduction).",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    compile_parser = subparsers.add_parser(
        "compile", help="compile one benchmark graph and print its metrics"
    )
    compile_parser.add_argument(
        "--family",
        choices=["lattice", "tree", "random", "percolated", "ghz"],
        default="lattice",
        help="benchmark graph family (percolated/ghz require --stream)",
    )
    compile_parser.add_argument("--size", type=int, default=20, help="number of qubits")
    compile_parser.add_argument("--seed", type=int, default=11, help="graph seed")
    compile_parser.add_argument(
        "--emitter-factor",
        type=float,
        default=1.5,
        help="emitter limit as a multiple of N_e^min",
    )
    compile_parser.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default=None,
        help="GF(2)/tableau kernel backend (default: process default, packed)",
    )
    compile_parser.add_argument(
        "--ordering",
        choices=list(ORDERING_STRATEGIES),
        default=None,
        help="emission-ordering search strategy (default: natural order)",
    )
    compile_parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="anytime portfolio compilation: return the verified best result "
        "within this wall-clock deadline and print the decision trace",
    )
    compile_parser.add_argument(
        "--portfolio-budget",
        type=int,
        default=None,
        help="anytime portfolio compilation with a deterministic step budget "
        "(run exactly the first N strategy rungs instead of a wall clock)",
    )
    compile_parser.add_argument(
        "--stream",
        action="store_true",
        help="stream the compile region-by-region from a lazy generator spec "
        "(lattice/percolated/ghz): bounded-window memory, operations are "
        "bit-identical to the whole-graph greedy reduction",
    )
    compile_parser.add_argument(
        "--chunk",
        type=int,
        default=None,
        help="streaming region size (lattice rows per band / GHZ leaves per "
        "chunk; default: the family default)",
    )
    compile_parser.add_argument(
        "--baseline", action="store_true", help="also compile with the baseline"
    )
    compile_parser.add_argument(
        "--verify", action="store_true", help="verify circuits on the stabilizer simulator"
    )
    compile_parser.add_argument(
        "--show-circuit", action="store_true", help="print the compiled gate list"
    )

    figure_parser = subparsers.add_parser(
        "figure", help="regenerate one of the paper's figures"
    )
    figure_parser.add_argument("figure", choices=sorted(_FIGURES))
    figure_parser.add_argument(
        "--sizes",
        type=int,
        nargs="*",
        default=None,
        help="override the sweep sizes (number of qubits per point)",
    )

    batch_parser = subparsers.add_parser(
        "batch",
        help="run a sweep of compilation jobs through the batch pipeline",
    )
    batch_parser.add_argument(
        "--kind",
        choices=list(JOB_KINDS),
        default="comparison",
        help="what each job computes (default: framework-vs-baseline comparison)",
    )
    batch_parser.add_argument(
        "--families",
        nargs="+",
        choices=list(GRAPH_FAMILIES),
        default=["lattice"],
        help="graph families to sweep (paper families plus the scenario zoo)",
    )
    batch_parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=[10, 20, 30],
        help="graph sizes (number of qubits; code distance for 'surface')",
    )
    batch_parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=[11],
        help="base graph seeds (one full sweep per seed)",
    )
    batch_parser.add_argument(
        "--factors",
        type=float,
        nargs="+",
        default=[1.5],
        help="emitter-limit factors N_e^limit / N_e^min",
    )
    batch_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool width; 1 runs serially in-process",
    )
    batch_parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory for the content-hash result cache (omit to disable)",
    )
    batch_parser.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default=None,
        help="GF(2)/tableau kernel backend pinned for every job",
    )
    batch_parser.add_argument(
        "--ordering",
        choices=list(ORDERING_STRATEGIES),
        default=None,
        help="emission-ordering strategy pinned on every job",
    )
    batch_parser.add_argument(
        "--verify", action="store_true", help="verify every compiled circuit"
    )
    batch_parser.add_argument(
        "--json",
        dest="json_path",
        default=None,
        help="also dump the full per-job records to this JSON file",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the compilation server (POST /compile and /batch, "
        "GET /status/<job>, /healthz and /metrics); --workers N > 1 runs "
        "the supervised multi-process fleet with SIGTERM graceful drain",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="address to bind (default: loopback)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8765, help="port to bind (0 picks a free port)"
    )
    serve_parser.add_argument(
        "--cache-dir",
        default=None,
        help="persistent result-cache directory; repeated requests are served "
        "from disk (omit to recompute everything); shared by every fleet worker",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="number of compile-worker processes; 1 serves in-process, N > 1 "
        "spawns a supervised fleet (content-hash routing, heartbeat "
        "restarts, /metrics, journaled requests, SIGTERM drain)",
    )
    serve_parser.add_argument(
        "--pool-workers",
        type=int,
        default=1,
        help="process-pool width inside each worker's micro-batch; "
        "1 compiles in-process",
    )
    serve_parser.add_argument(
        "--journal",
        default=".repro-fleet-journal.jsonl",
        help="pending-queue journal file of the fleet front end (accepted "
        "requests are replayed after a crash); fleet mode only",
    )
    serve_parser.add_argument(
        "--heartbeat-seconds",
        type=float,
        default=0.5,
        help="fleet supervision period (heartbeats, restart scheduling)",
    )
    serve_parser.add_argument(
        "--drain-timeout",
        type=float,
        default=60.0,
        help="maximum seconds a SIGTERM graceful drain waits for in-flight "
        "requests before exiting anyway",
    )
    serve_parser.add_argument(
        "--batch-window-ms",
        type=float,
        default=20.0,
        help="how long to collect concurrent requests into one micro-batch",
    )
    serve_parser.add_argument(
        "--max-batch",
        type=int,
        default=32,
        help="maximum requests per micro-batch",
    )
    serve_parser.add_argument(
        "--subgraph-cache-dir",
        default=None,
        help="persistent disk tier for the isomorphism-keyed subgraph "
        "compile cache (exported as REPRO_SUBGRAPH_CACHE_DIR so pool "
        "workers inherit it; omit for a memory-only cache)",
    )
    serve_parser.add_argument(
        "--compile-timeout-s",
        type=float,
        default=None,
        help="per-compile wall-clock watchdog: a compile that produces no "
        "outcome within this many seconds is answered as a structured "
        "timeout (HTTP 504) instead of hanging the request",
    )
    serve_parser.add_argument(
        "--max-job-attempts",
        type=int,
        default=3,
        help="fleet mode: crashed dispatch attempts (summed across restarts "
        "via the journal) before a request is quarantined as poisoned and "
        "answered HTTP 422",
    )
    serve_parser.add_argument(
        "--fault-schedule",
        default=None,
        help="deterministic fault injection: a JSON schedule (inline object "
        "or a file path; also exported as REPRO_FAULT_SCHEDULE so fleet "
        "workers inherit it) — see docs/operations.md",
    )
    serve_parser.add_argument(
        "--replicate-to",
        default=None,
        metavar="HOST:PORT",
        help="high availability: the replication channel address — the "
        "primary streams every accepted journal record there (acked before "
        "the client sees 200) and a --standby binds and listens on it; "
        "fleet mode only, requires --lease",
    )
    serve_parser.add_argument(
        "--standby",
        action="store_true",
        help="run as the standby front end: sink journal replication on "
        "--replicate-to, watch the primary's lease, and promote (bump the "
        "epoch, fence the old primary, spawn workers, bind --port) when "
        "the primary goes quiet",
    )
    serve_parser.add_argument(
        "--lease",
        default=None,
        help="leadership lease file shared by primary and standby (epoch "
        "numbers live here); required with --replicate-to or --standby",
    )
    serve_parser.add_argument(
        "--failover-after-seconds",
        type=float,
        default=2.0,
        help="standby mode: replication silence (with an expired lease) "
        "required before promotion",
    )
    serve_parser.add_argument(
        "--hedge-quantile",
        type=float,
        default=None,
        help="fleet mode: hedge slow dispatches — when a first attempt "
        "exceeds this latency quantile of recent requests, race a backup "
        "attempt on another healthy worker (compiles are idempotent, so "
        "the loser is discarded); e.g. 0.95",
    )
    serve_parser.add_argument(
        "--verbose", action="store_true", help="log one line per HTTP request"
    )

    loadgen_parser = subparsers.add_parser(
        "loadgen",
        help="drive a compilation server closed-loop and report throughput, "
        "p50/p95/p99 latency and the cache-hit rate",
    )
    loadgen_parser.add_argument(
        "--url",
        default=None,
        help="server root, e.g. http://127.0.0.1:8765 (or use --self-serve); "
        "a comma-separated list enables client-side failover across a "
        "primary/standby pair",
    )
    loadgen_parser.add_argument(
        "--self-serve",
        action="store_true",
        help="start an in-process server on a free port for the duration of "
        "the run (useful for smoke tests and CI)",
    )
    loadgen_parser.add_argument(
        "--self-serve-workers",
        type=int,
        default=1,
        help="with --self-serve: number of compile workers; N > 1 "
        "self-serves a supervised fleet instead of a single server",
    )
    loadgen_parser.add_argument(
        "--cache-dir",
        default=None,
        help="result-cache directory of the self-served instance "
        "(only with --self-serve)",
    )
    loadgen_parser.add_argument(
        "--families",
        nargs="+",
        choices=list(GRAPH_FAMILIES),
        default=["lattice"],
        help="graph families in the workload mix",
    )
    loadgen_parser.add_argument(
        "--sizes", type=int, nargs="+", default=[10], help="graph sizes in the mix"
    )
    loadgen_parser.add_argument(
        "--seeds", type=int, nargs="+", default=[11], help="graph seeds in the mix"
    )
    loadgen_parser.add_argument(
        "--kind",
        choices=list(JOB_KINDS),
        default="compile",
        help="job kind issued by every request",
    )
    loadgen_parser.add_argument(
        "--requests", type=int, default=50, help="total number of requests"
    )
    loadgen_parser.add_argument(
        "--concurrency", type=int, default=4, help="closed-loop worker threads"
    )
    loadgen_parser.add_argument(
        "--timeout", type=float, default=120.0, help="per-request timeout in seconds"
    )
    loadgen_parser.add_argument(
        "--retries",
        type=int,
        default=1,
        help="retries per request after a connection failure or HTTP 503 "
        "(compiles are content-hash idempotent, so re-POSTing is safe)",
    )
    loadgen_parser.add_argument(
        "--kill-worker-after",
        type=int,
        default=None,
        help="fault injection: SIGKILL one compile worker of the target "
        "fleet after this many completed requests (requires a fleet front "
        "end; the run must still finish with zero errors)",
    )
    loadgen_parser.add_argument(
        "--kill-front-end-after",
        type=int,
        default=None,
        help="failover drill: SIGKILL the front end itself (the first "
        "--url address) after this many completed requests; pair with a "
        "comma-separated --url and generous --retries — the run must "
        "finish against the promoted standby with zero lost and zero "
        "duplicated accepted requests",
    )
    loadgen_parser.add_argument(
        "--fault-schedule",
        default=None,
        help="deterministic fault injection: a JSON schedule (inline object "
        "or a file path) installed before the run; with --self-serve the "
        "schedule also reaches the spawned fleet workers via "
        "REPRO_FAULT_SCHEDULE",
    )
    loadgen_parser.add_argument(
        "--poison-seed",
        type=int,
        default=None,
        help="chaos testing: send one extra payload (the first family/size "
        "with this graph seed) as the final request; the run then requires "
        "exactly one HTTP 422 poison quarantine to exit 0",
    )
    loadgen_parser.add_argument(
        "--metrics-out",
        default=None,
        help="scrape GET /metrics after the run (before a self-served fleet "
        "shuts down) and write the exposition to this file",
    )
    loadgen_parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="attach this anytime-compilation deadline to every request "
        "(routes the server through the portfolio compiler and reports the "
        "deadline-miss rate and served quality)",
    )
    loadgen_parser.add_argument(
        "--priority",
        choices=list(PRIORITY_CLASSES),
        default=None,
        help="admission-control priority class for every request "
        "(only meaningful with --deadline-ms)",
    )
    loadgen_parser.add_argument(
        "--max-deadline-miss-rate",
        type=float,
        default=None,
        help="fail (exit 7) when the observed deadline-miss rate is higher; "
        "requires --deadline-ms",
    )
    loadgen_parser.add_argument(
        "--min-cache-hit-rate",
        type=float,
        default=None,
        help="fail (exit 7) when the observed cache-hit rate is lower; "
        "use on a second identical run to prove the cache works",
    )
    loadgen_parser.add_argument(
        "--json",
        dest="json_path",
        default=None,
        help="also dump the report summary to this JSON file",
    )

    bench_parser = subparsers.add_parser(
        "bench",
        help="run the emitter perf-trajectory benchmark (naive vs incremental "
        "height function, dense vs packed end-to-end compile) and write "
        "BENCH_emitters.json",
    )
    bench_parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=None,
        help="graph sizes to sweep (default: 64 128 256 512)",
    )
    bench_parser.add_argument(
        "--compile-sizes",
        type=int,
        nargs="*",
        default=None,
        help="graph sizes for the end-to-end compile section "
        "(default: 32 64 128 256; pass with no values to skip the section)",
    )
    bench_parser.add_argument(
        "--cache-sizes",
        type=int,
        nargs="*",
        default=None,
        help="vertex counts for the subgraph-compile-cache section, swept "
        "over the lattice/surface/regular zoo families "
        "(default: 128 256; pass with no values to skip the section)",
    )
    bench_parser.add_argument(
        "--portfolio-sizes",
        type=int,
        nargs="*",
        default=None,
        help="graph sizes for the anytime-portfolio section (deadline sweep "
        "over the zoo families; default: 16 24; pass with no values to "
        "skip the section)",
    )
    bench_parser.add_argument(
        "--portfolio-deadlines-ms",
        type=float,
        nargs="+",
        default=None,
        help="deadline grid for the portfolio section in milliseconds "
        "(default: 50 200 1000 5000)",
    )
    bench_parser.add_argument(
        "--stream-sizes",
        type=int,
        nargs="*",
        default=None,
        help="vertex counts for the streaming-compile section, swept over "
        "the lattice/ghz families under tracemalloc "
        "(default: 25600 102400; pass with no values to skip the section)",
    )
    bench_parser.add_argument(
        "--repeats", type=int, default=3, help="timing repetitions per point"
    )
    bench_parser.add_argument(
        "--seed", type=int, default=2025, help="graph-sampling seed"
    )
    bench_parser.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default=None,
        help="GF(2) backend for both evaluations (default: process default)",
    )
    bench_parser.add_argument(
        "--output",
        default="BENCH_emitters.json",
        help="where to write the benchmark record",
    )
    return parser


def _stream_compile(args: argparse.Namespace) -> int:
    """The ``repro compile --stream`` path: bounded-window streaming."""
    import tracemalloc

    from repro.core.streaming import compile_stream
    from repro.graphs.lazy import STREAM_FAMILIES, make_stream_spec

    if args.family not in STREAM_FAMILIES:
        raise ValueError(
            f"--stream supports families {STREAM_FAMILIES}, got {args.family!r}"
        )
    spec = make_stream_spec(args.family, args.size, seed=args.seed, chunk=args.chunk)
    tracemalloc.start()
    result = compile_stream(spec, collect_operations=args.verify)
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    print(
        f"stream: {spec.family} with {spec.num_vertices} qubits in "
        f"{result.num_regions} regions"
    )
    print(
        f"window: capacity {result.window_capacity} photons, "
        f"peak {result.peak_window_photons}"
    )
    print(f"peak traced memory: {peak_bytes} bytes")
    print("stream result:")
    summary = {
        "num_emitters": result.num_emitters,
        "num_operations": result.num_operations,
        "num_emissions": result.num_emissions,
        "num_emitter_emitter_gates": result.num_emitter_emitter_gates,
        "emitters_over_budget": result.emitters_over_budget,
        "elapsed_seconds": f"{result.elapsed_seconds:.3f}",
    }
    for key, value in sorted(summary.items()):
        print(f"  {key}: {value}")
    for op_name, count in result.op_counts.items():
        print(f"  ops.{op_name}: {count}")
    if args.verify:
        from repro.core.strategies import greedy_reduce

        oracle = greedy_reduce(spec.materialize())
        if (
            result.operations != oracle.operations
            or result.num_emitters != oracle.num_emitters
        ):
            raise AssertionError(
                "streamed operations diverge from the whole-graph reduction"
            )
        print("verified: streamed operations bit-identical to the whole-graph "
              "greedy reduction")
    return EXIT_OK


def _run_compile(args: argparse.Namespace) -> int:
    if args.stream:
        return _stream_compile(args)
    if args.family in ("percolated", "ghz"):
        raise ValueError(
            f"family {args.family!r} is streaming-only here; pass --stream "
            "(or use `repro batch` for the materialised zoo family)"
        )
    graph = benchmark_graph(args.family, args.size, seed=args.seed)
    overrides: dict[str, object] = {"gf2_backend": args.backend}
    if args.ordering is not None:
        overrides["ordering_strategy"] = args.ordering
    config = fast_config(
        emitter_limit_factor=args.emitter_factor, verify=args.verify
    ).with_overrides(**overrides)
    portfolio = None
    if args.deadline_ms is not None or args.portfolio_budget is not None:
        from repro.core.portfolio import PortfolioCompiler

        portfolio = PortfolioCompiler(config).compile(
            graph,
            deadline_ms=args.deadline_ms,
            budget=args.portfolio_budget,
            family=args.family,
        )
        result = portfolio.result
    else:
        result = EmitterCompiler(config).compile(graph)
    print(f"graph: {args.family} with {graph.num_vertices} qubits, {graph.num_edges} edges")
    if portfolio is not None:
        missed = "MISSED" if portfolio.deadline_missed else "met"
        budget_note = (
            f"deadline {args.deadline_ms:g} ms ({missed})"
            if args.deadline_ms is not None
            else f"budget {args.portfolio_budget} rungs"
        )
        print(
            f"portfolio: winner {portfolio.winner!r} after "
            f"{portfolio.elapsed_seconds:.3f}s  [{budget_note}]"
        )
        for outcome in portfolio.outcomes:
            record = outcome.as_record()
            quality = record["quality"]
            quality_note = (
                "pending"
                if quality is None
                else f"cnots={quality[0]:g} loss={quality[1]:.3f} dur={quality[2]:g}"
            )
            print(
                f"  rung {record['name']}: {record['status']}  {quality_note}"
                f"  ({record['reason']})"
            )
    print("framework result:")
    for key, value in sorted(result.summary().items()):
        print(f"  {key}: {value}")
    if result.subgraph_cache_stats is not None:
        stats = result.subgraph_cache_stats
        print(
            "subgraph compile cache: "
            f"hits {stats['hits']}  misses {stats['misses']}  "
            f"hit rate {stats['hit_rate']:.2f}"
        )
    if args.baseline:
        baseline = BaselineCompiler(hardware=config.hardware, verify=args.verify).compile(graph)
        print("baseline result:")
        for key, value in sorted(baseline.metrics.as_dict().items()):
            print(f"  {key}: {value}")
    if args.show_circuit:
        print("circuit:")
        print(result.circuit.pretty())
    return EXIT_OK


def _run_figure(args: argparse.Namespace) -> int:
    data = _FIGURES[args.figure](args)
    print(data.to_text())
    return EXIT_OK


def _batch_row(outcome) -> list[object]:
    record = outcome.result or {}
    ours = record.get("ours", {})
    baseline = record.get("baseline", {})
    status = "error" if outcome.error else ("cached" if outcome.cache_hit else "ran")
    return [
        outcome.job.label,
        record.get("num_qubits", "-"),
        ours.get("num_emitter_emitter_cnots", "-"),
        baseline.get("num_emitter_emitter_cnots", "-"),
        f"{outcome.elapsed_seconds:.3f}",
        status,
    ]


def _run_batch(args: argparse.Namespace) -> int:
    jobs = [
        job
        for family in args.families
        for seed in args.seeds
        for factor in args.factors
        for job in sweep_jobs(
            family,
            args.sizes,
            kind=args.kind,
            seed=seed,
            emitter_limit_factor=factor,
            backend=args.backend,
            ordering=args.ordering,
            verify=args.verify,
        )
    ]
    runner = BatchRunner(max_workers=args.workers, cache_dir=args.cache_dir)
    report = runner.run(jobs)

    print(
        render_table(
            ["job", "qubits", "ours_cnot", "baseline_cnot", "seconds", "status"],
            [_batch_row(outcome) for outcome in report.outcomes],
        )
    )
    summary = report.summary()
    print(
        f"jobs: {summary['num_jobs']}  cache hits: {summary['num_cache_hits']}  "
        f"errors: {summary['num_errors']}  wall: {summary['wall_seconds']:.3f}s  "
        f"compute: {summary['compute_seconds']:.3f}s"
    )
    for outcome in report.outcomes:
        if outcome.error:
            print(f"FAILED {outcome.job.label}: {outcome.error}")
    if args.json_path:
        payload = {
            "summary": summary,
            "jobs": [
                {
                    "label": outcome.job.label,
                    "cache_hit": outcome.cache_hit,
                    "elapsed_seconds": outcome.elapsed_seconds,
                    "error": outcome.error,
                    "result": outcome.result,
                }
                for outcome in report.outcomes
            ],
        }
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json_path}")
    return EXIT_BATCH if report.num_errors else EXIT_OK


def _install_fault_schedule(value: str) -> None:
    """Parse and install a fault schedule, exporting it for child workers.

    The value is validated eagerly (a malformed schedule fails the command
    instead of being discovered mid-chaos-run) and exported as
    ``REPRO_FAULT_SCHEDULE`` so spawned fleet workers inherit it.
    """
    import os

    from repro.utils.faults import FaultSchedule, install_schedule

    schedule = FaultSchedule.from_env_value(value)
    os.environ["REPRO_FAULT_SCHEDULE"] = value
    install_schedule(schedule)


def _parse_hostport(value: str, flag: str) -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"{flag} must be HOST:PORT, got {value!r}")
    return host, int(port)


def _run_serve(args: argparse.Namespace) -> int:
    if args.fault_schedule:
        _install_fault_schedule(args.fault_schedule)
    if (args.standby or args.replicate_to) and not args.lease:
        print("serve: --standby/--replicate-to require --lease", file=sys.stderr)
        return EXIT_SERVE
    if args.standby:
        if not args.replicate_to:
            print(
                "serve: --standby needs --replicate-to (the replication "
                "address to listen on)",
                file=sys.stderr,
            )
            return EXIT_SERVE
        return _run_serve_standby(args)
    if args.replicate_to and args.workers <= 1:
        print("serve: --replicate-to requires fleet mode (--workers > 1)",
              file=sys.stderr)
        return EXIT_SERVE
    if args.workers > 1:
        return _run_serve_fleet(args)
    return _run_serve_single(args)


def _run_serve_single(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.service.server import CompileServer, CompileService

    service = CompileService(
        cache_dir=args.cache_dir,
        max_workers=args.pool_workers,
        batch_window_seconds=args.batch_window_ms / 1000.0,
        max_batch=args.max_batch,
        subgraph_cache_dir=args.subgraph_cache_dir,
        compile_timeout_s=args.compile_timeout_s,
    )
    server = CompileServer((args.host, args.port), service, verbose=args.verbose)
    host, port = server.server_address[:2]
    cache_note = args.cache_dir if args.cache_dir else "disabled"
    print(f"repro serve: listening on http://{host}:{port} (cache: {cache_note})")
    print(
        "endpoints: POST /compile, POST /batch, GET /status/<job>, GET /healthz, GET /metrics"
    )

    def _drain_handler(signum, frame):  # noqa: ARG001 - signal API
        # Drain on a helper thread: shutdown() would deadlock the serving
        # loop this handler interrupts.
        threading.Thread(
            target=server.drain,
            kwargs={"timeout": args.drain_timeout},
            daemon=True,
        ).start()

    signal.signal(signal.SIGTERM, _drain_handler)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.shutdown()
        server.server_close()
    return EXIT_OK


def _run_serve_fleet(args: argparse.Namespace) -> int:
    from repro.service.fleet import (
        FleetServer,
        FleetSupervisor,
        install_sigterm_drain,
    )

    epoch = 0
    lease = None
    replication = None
    if args.replicate_to:
        from repro.service.replication import Lease, ReplicationLink

        lease = Lease(args.lease, holder="primary")
        epoch = lease.acquire()
        replication = ReplicationLink(
            _parse_hostport(args.replicate_to, "--replicate-to"), epoch=epoch
        )
    supervisor = FleetSupervisor(
        args.workers,
        host=args.host,
        cache_dir=args.cache_dir,
        subgraph_cache_dir=args.subgraph_cache_dir,
        journal_path=args.journal or None,
        pool_workers=args.pool_workers,
        batch_window_ms=args.batch_window_ms,
        heartbeat_seconds=args.heartbeat_seconds,
        max_job_attempts=args.max_job_attempts,
        compile_timeout_s=args.compile_timeout_s,
        epoch=epoch,
        replication=replication,
        lease=lease,
        hedge_quantile=args.hedge_quantile,
    )
    supervisor.start()
    server = FleetServer((args.host, args.port), supervisor, verbose=args.verbose)
    install_sigterm_drain(server, timeout=args.drain_timeout)
    host, port = server.server_address[:2]
    cache_note = args.cache_dir if args.cache_dir else "disabled"
    journal_note = args.journal if args.journal else "disabled"
    print(
        f"repro serve: fleet of {args.workers} workers behind "
        f"http://{host}:{port} (cache: {cache_note}, journal: {journal_note})"
    )
    if replication is not None:
        print(
            f"repro serve: primary at epoch {epoch}, replicating the journal "
            f"to {args.replicate_to} (lease: {args.lease})"
        )
    print(
        "endpoints: POST /compile, POST /batch, GET /status/<job>, "
        "GET /healthz, GET /metrics"
    )
    try:
        server.serve_forever()
    finally:
        supervisor.stop()
        server.server_close()
    return EXIT_OK


def _run_serve_standby(args: argparse.Namespace) -> int:
    from repro.service.ha import StandbyCoordinator

    coordinator = StandbyCoordinator(
        args.workers,
        (args.host, args.port),
        _parse_hostport(args.replicate_to, "--replicate-to"),
        journal_path=args.journal,
        lease_path=args.lease,
        failover_after_seconds=args.failover_after_seconds,
        supervisor_kwargs={
            "cache_dir": args.cache_dir,
            "subgraph_cache_dir": args.subgraph_cache_dir,
            "pool_workers": args.pool_workers,
            "batch_window_ms": args.batch_window_ms,
            "heartbeat_seconds": args.heartbeat_seconds,
            "max_job_attempts": args.max_job_attempts,
            "compile_timeout_s": args.compile_timeout_s,
            "hedge_quantile": args.hedge_quantile,
        },
    )
    coordinator.start()
    print(
        f"repro serve: standby sinking replication on {args.replicate_to}; "
        f"will promote onto http://{args.host}:{args.port} after "
        f"{args.failover_after_seconds:.1f}s of primary silence "
        f"(lease: {args.lease})"
    )
    try:
        coordinator.serve_forever(install_signals=True)
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        coordinator.stop()
    return EXIT_OK


def _run_loadgen(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient
    from repro.service.loadgen import run_loadgen, workload_payloads
    from repro.service.server import start_server

    if bool(args.url) == bool(args.self_serve):
        print("loadgen: pass exactly one of --url or --self-serve", file=sys.stderr)
        return EXIT_LOADGEN
    if args.max_deadline_miss_rate is not None and args.deadline_ms is None:
        print(
            "loadgen: --max-deadline-miss-rate requires --deadline-ms",
            file=sys.stderr,
        )
        return EXIT_LOADGEN
    if args.kill_front_end_after is not None and not args.url:
        # A self-served front end runs in *this* process: SIGKILLing its
        # /healthz pid would kill the load generator itself.
        print(
            "loadgen: --kill-front-end-after requires --url (an external "
            "primary/standby pair)",
            file=sys.stderr,
        )
        return EXIT_LOADGEN
    if args.fault_schedule:
        _install_fault_schedule(args.fault_schedule)
    payloads = workload_payloads(
        args.families,
        args.sizes,
        seeds=args.seeds,
        kind=args.kind,
        deadline_ms=args.deadline_ms,
        priority=args.priority,
    )
    poison_payload = None
    if args.poison_seed is not None:
        # One extra job, distinguishable from the mix by its seed: a crash
        # rule matching "#<seed>" in the job label hits only this request.
        poison_payload = dict(payloads[0])
        poison_payload["seed"] = args.poison_seed
    server = None
    supervisor = None
    try:
        if args.self_serve:
            if args.self_serve_workers > 1:
                from repro.service.fleet import start_fleet

                server, supervisor, _ = start_fleet(
                    args.self_serve_workers, cache_dir=args.cache_dir
                )
            else:
                server, _ = start_server(cache_dir=args.cache_dir)
            host, port = server.server_address[:2]
            url = f"http://{host}:{port}"
            print(f"loadgen: self-serving on {url}")
        else:
            url = args.url
        # A freshly backgrounded `repro serve` may still be binding; wait for
        # /healthz instead of burning every request on connection-refused.
        ServiceClient(url, timeout=args.timeout).wait_until_ready(
            timeout=max(10.0, args.timeout)
        )
        report = run_loadgen(
            url,
            payloads,
            requests=args.requests,
            concurrency=args.concurrency,
            timeout=args.timeout,
            retries=args.retries,
            kill_worker_after=args.kill_worker_after,
            kill_front_end_after=args.kill_front_end_after,
            poison_payload=poison_payload,
        )
        if args.metrics_out:
            # Scraped before the self-served instance shuts down.  With a
            # multi-address --url the client rotates past dead addresses, so
            # the first live front end answers (after a failover drill that
            # is the promoted standby).
            addresses = str(url).count(",") + 1
            exposition = ServiceClient(
                url, timeout=args.timeout, retries=addresses - 1, retry_backoff_seconds=0.0
            ).metrics()
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                handle.write(exposition)
    finally:
        if supervisor is not None:
            supervisor.stop()
        if server is not None:
            server.shutdown()
            server.server_close()
    print(report.to_text())
    if args.metrics_out:
        print(f"wrote {args.metrics_out}")
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(report.summary(), handle, indent=2, sort_keys=True)
        print(f"wrote {args.json_path}")
    if not report.ok:
        return EXIT_LOADGEN
    if args.poison_seed is not None and report.poisoned != 1:
        print(
            f"loadgen: expected exactly 1 poisoned request, saw {report.poisoned}",
            file=sys.stderr,
        )
        return EXIT_LOADGEN
    if (
        args.min_cache_hit_rate is not None
        and report.cache_hit_rate < args.min_cache_hit_rate
    ):
        print(
            f"loadgen: cache-hit rate {report.cache_hit_rate:.2f} below required "
            f"{args.min_cache_hit_rate:.2f}",
            file=sys.stderr,
        )
        return EXIT_LOADGEN
    if (
        args.max_deadline_miss_rate is not None
        and report.deadline_miss_rate > args.max_deadline_miss_rate
    ):
        print(
            f"loadgen: deadline-miss rate {report.deadline_miss_rate:.2f} above "
            f"allowed {args.max_deadline_miss_rate:.2f}",
            file=sys.stderr,
        )
        return EXIT_LOADGEN
    return EXIT_OK


def _run_bench(args: argparse.Namespace) -> int:
    from repro.evaluation.perf import (
        DEFAULT_BENCH_SIZES,
        DEFAULT_CACHE_SIZES,
        DEFAULT_COMPILE_SIZES,
        DEFAULT_PORTFOLIO_DEADLINES_MS,
        DEFAULT_PORTFOLIO_SIZES,
        DEFAULT_STREAM_SIZES,
        write_bench_file,
    )

    sizes = tuple(args.sizes) if args.sizes else DEFAULT_BENCH_SIZES
    compile_sizes = (
        tuple(args.compile_sizes)
        if args.compile_sizes is not None
        else DEFAULT_COMPILE_SIZES
    )
    cache_sizes = (
        tuple(args.cache_sizes)
        if args.cache_sizes is not None
        else DEFAULT_CACHE_SIZES
    )
    portfolio_sizes = (
        tuple(args.portfolio_sizes)
        if args.portfolio_sizes is not None
        else DEFAULT_PORTFOLIO_SIZES
    )
    portfolio_deadlines = (
        tuple(args.portfolio_deadlines_ms)
        if args.portfolio_deadlines_ms is not None
        else DEFAULT_PORTFOLIO_DEADLINES_MS
    )
    stream_sizes = (
        tuple(args.stream_sizes)
        if args.stream_sizes is not None
        else DEFAULT_STREAM_SIZES
    )
    record = write_bench_file(
        args.output,
        sizes=sizes,
        repeats=args.repeats,
        seed=args.seed,
        backend=args.backend,
        compile_sizes=compile_sizes,
        cache_sizes=cache_sizes,
        portfolio_sizes=portfolio_sizes,
        portfolio_deadlines_ms=portfolio_deadlines,
        stream_sizes=stream_sizes,
    )
    print("height function (naive per-prefix vs incremental engine):")
    print(
        render_table(
            ["size", "naive_s", "incremental_s", "speedup", "natural_peak", "greedy_peak"],
            [
                [
                    row["size"],
                    f"{row['naive_median_seconds']:.4f}",
                    f"{row['incremental_median_seconds']:.4f}",
                    f"{row['speedup']:.1f}x",
                    row["natural_peak"],
                    row["greedy_peak"],
                ]
                for row in record["results"]
            ],
        )
    )
    if record["compile_results"]:
        print("end-to-end compile_graph (dense oracle vs packed fast path):")
        print(
            render_table(
                ["size", "dense_s", "packed_s", "speedup", "ee_cnots"],
                [
                    [
                        row["size"],
                        f"{row['naive_median_seconds']:.4f}",
                        f"{row['packed_median_seconds']:.4f}",
                        f"{row['speedup']:.1f}x",
                        row["num_emitter_emitter_cnots"],
                    ]
                    for row in record["compile_results"]
                ],
            )
        )
    if record["cache_results"]:
        print("subgraph compile cache (cold vs first-run vs warm compile_graph):")
        print(
            render_table(
                [
                    "family",
                    "vertices",
                    "cold_s",
                    "first_run_s",
                    "warm_s",
                    "warm_speedup",
                    "hit_rate",
                ],
                [
                    [
                        row["family"],
                        row["num_vertices"],
                        f"{row['cold_median_seconds']:.4f}",
                        f"{row['first_run_median_seconds']:.4f}",
                        f"{row['warm_median_seconds']:.4f}",
                        f"{row['warm_speedup']:.1f}x",
                        f"{row['warm_hit_rate']:.2f}",
                    ]
                    for row in record["cache_results"]
                ],
            )
        )
    if record["portfolio_results"]:
        print("anytime portfolio (best quality within each deadline):")
        print(
            render_table(
                ["family", "vertices", "deadline_ms", "rungs", "ee_cnots", "duration"],
                [
                    [
                        row["family"],
                        row["num_vertices"],
                        f"{point['deadline_ms']:g}",
                        point["rungs_run"],
                        f"{point['quality']['num_emitter_emitter_cnots']:g}",
                        f"{point['quality']['duration']:g}",
                    ]
                    for row in record["portfolio_results"]
                    for point in row["anytime_curve"]
                ],
            )
        )
    if record["stream_results"]:
        print("streaming partition-compile (bounded window, tracemalloc peak):")
        print(
            render_table(
                ["family", "vertices", "regions", "window", "emitters", "peak_mem", "seconds"],
                [
                    [
                        row["family"],
                        row["num_vertices"],
                        row["num_regions"],
                        row["window_capacity"],
                        row["num_emitters"],
                        f"{row['peak_traced_bytes'] / 1e6:.2f}MB",
                        f"{row['elapsed_seconds']:.2f}",
                    ]
                    for row in record["stream_results"]
                ],
            )
        )
    if record["peak_memory_bytes"]:
        sections = "  ".join(
            f"{name}={bytes_ / 1e6:.1f}MB"
            for name, bytes_ in sorted(record["peak_memory_bytes"].items())
        )
        print(f"per-section tracemalloc peaks: {sections}")
    print(
        f"backend: {record['backend']}  git: {record['git_rev']}  "
        f"repeats: {record['repeats']}"
    )
    print(f"wrote {args.output}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Parameters
    ----------
    argv : list[str] | None, optional
        Argument vector (default: ``sys.argv[1:]``).

    Returns
    -------
    int
        ``0`` on success; each subcommand has its own non-zero failure code
        (see the module docstring).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "compile": (_run_compile, EXIT_COMPILE),
        "figure": (_run_figure, EXIT_FIGURE),
        "batch": (_run_batch, EXIT_BATCH),
        "serve": (_run_serve, EXIT_SERVE),
        "loadgen": (_run_loadgen, EXIT_LOADGEN),
        "bench": (_run_bench, EXIT_BENCH),
    }
    handler, failure_code = handlers[args.command]
    try:
        return handler(args)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("interrupted", file=sys.stderr)
        return failure_code
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"repro {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return failure_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
