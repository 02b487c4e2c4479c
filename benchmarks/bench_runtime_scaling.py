"""Compile-runtime scaling and GF(2) fast-path speedups (paper §III).

The paper motivates the framework by GraphiQ's runtime exceeding 10^3 seconds
for linear clusters beyond 10 qubits.  This benchmark measures the wall-clock
time of the divide-and-conquer compiler on linear clusters up to 60 qubits
and asserts it stays within an interactive budget (well under a minute per
graph on a laptop).

It also pins down the packed GF(2) fast path (``repro.utils.gf2_packed``):
the cut-rank kernel and the stabilizer canonicalisation used by circuit
verification must stay several times faster than the dense oracle at
multi-hundred-qubit sizes.

Environment knobs (used by the CI smoke job to keep runtimes tiny):

* ``REPRO_BENCH_SIZES`` — comma-separated linear-cluster sizes
  (default ``10,20,40,60``);
* ``REPRO_BENCH_KERNEL_QUBITS`` — graph size for the kernel speedup
  measurements (default ``512``; speedup assertions only apply from 256
  qubits up, below that the benchmark just exercises the code paths);
* ``REPRO_BENCH_HEIGHT_QUBITS`` — graph size for the incremental
  height-function case (default ``256``; the >=5x incremental-vs-naive
  assertion only applies from 256 qubits up);
* ``REPRO_BENCH_COMPILE_QUBITS`` — graph size for the end-to-end
  dense-vs-packed ``compile_graph`` case (default ``256``; the floor
  assertion only applies from 256 qubits up);
* ``REPRO_BENCH_CACHE_QUBITS`` — lattice size for the cold-vs-warm
  subgraph-compile-cache case (default ``128``; the warm-speedup floor only
  applies from 128 qubits up — the nonzero-hit-rate assertion always does);
* ``REPRO_BENCH_PORTFOLIO_QUBITS`` — graph size for the anytime-portfolio
  case (default ``16``);
* ``REPRO_BENCH_PORTFOLIO_DEADLINES_MS`` — comma-separated deadline grid for
  the anytime-portfolio case (default ``50,500,5000``; the monotone-quality
  and zero-miss-at-the-top assertions always apply);
* ``REPRO_BENCH_STREAM_SIZES`` — comma-separated vertex counts for the
  streaming-compile case (default ``4096,16384``; sizes <= 2500 are also
  verified op-for-op against the whole-graph compile);
* ``REPRO_BENCH_STREAM_MEM_MB`` — traced-peak-memory ceiling in MiB for the
  largest streamed size (default ``64``).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.evaluation.figures import runtime_scaling
from repro.evaluation.perf import naive_height_function
from repro.graphs.entanglement import cut_rank, height_function
from repro.graphs.graph_state import GraphState
from repro.graphs.incremental import CutRankEngine
from repro.stabilizer.canonical import canonical_stabilizer_matrix
from repro.stabilizer.tableau import StabilizerState


def _env_sizes(name: str, default: tuple[int, ...]) -> tuple[int, ...]:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    return tuple(int(part) for part in raw.replace(",", " ").split())


SIZES = _env_sizes("REPRO_BENCH_SIZES", (10, 20, 40, 60))
KERNEL_QUBITS = int(os.environ.get("REPRO_BENCH_KERNEL_QUBITS", "512"))
HEIGHT_QUBITS = int(os.environ.get("REPRO_BENCH_HEIGHT_QUBITS", "256"))
COMPILE_QUBITS = int(os.environ.get("REPRO_BENCH_COMPILE_QUBITS", "256"))
CACHE_QUBITS = int(os.environ.get("REPRO_BENCH_CACHE_QUBITS", "128"))
PORTFOLIO_QUBITS = int(os.environ.get("REPRO_BENCH_PORTFOLIO_QUBITS", "16"))
PORTFOLIO_DEADLINES_MS = tuple(
    float(d)
    for d in _env_sizes("REPRO_BENCH_PORTFOLIO_DEADLINES_MS", (50, 500, 5000))
)
STREAM_SIZES = _env_sizes("REPRO_BENCH_STREAM_SIZES", (4096, 16384))
STREAM_MEM_MB = float(os.environ.get("REPRO_BENCH_STREAM_MEM_MB", "64"))

#: Assert the packed backend is at least this many times faster (only at
#: KERNEL_QUBITS >= 256; generous vs the typical 3-6x to absorb CI noise).
MIN_KERNEL_SPEEDUP = 2.5

#: Assert the incremental height-function sweep beats the naive
#: one-rank-per-prefix evaluation by at least this factor (only at
#: HEIGHT_QUBITS >= 256; typical measurements are well above 10x).
MIN_HEIGHT_SPEEDUP = 5.0

#: Assert the packed-backend end-to-end compile beats the dense oracle by at
#: least this factor (only at COMPILE_QUBITS >= 256; the typical measurement
#: is ~3x — the floor is generous to absorb CI noise).
MIN_COMPILE_SPEEDUP = 2.0

#: Assert per-vertex streaming time at 6,400 percolated vertices is at most
#: this multiple of the per-vertex time at 1,600.  A streamed compile that
#: is linear in ``n`` reads ~1.0-1.3x; rescanning the whole emitter pool
#: after every photon reads ~3x.
MAX_STREAM_PER_VERTEX_GROWTH = 2.0

#: Assert the warm subgraph compile cache beats the cache-disabled (cold)
#: compile by at least this factor on a repeated-leaf lattice (only at
#: CACHE_QUBITS >= 128; the typical measurement is ~10x).
MIN_CACHE_SPEEDUP = 3.0


def _run():
    return runtime_scaling(sizes=SIZES)


def test_runtime_scaling_linear_cluster(benchmark):
    data = benchmark.pedantic(_run, rounds=1, iterations=1)
    print()
    print(data.to_text())
    benchmark.extra_info["max_ours_seconds"] = data.summary["max_ours_seconds"]
    assert data.summary["max_ours_seconds"] < 60.0
    assert len(data.rows) == len(SIZES)


# --------------------------------------------------------------------------- #
# Packed vs dense GF(2) kernels
# --------------------------------------------------------------------------- #


def _median_seconds(func, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


def _random_graph(num_vertices: int, edges_per_vertex: int = 6) -> GraphState:
    rng = np.random.default_rng(2025)
    graph = GraphState(vertices=range(num_vertices))
    for _ in range(edges_per_vertex * num_vertices):
        u, v = rng.choice(num_vertices, size=2, replace=False)
        graph.add_edge(int(u), int(v))
    return graph


def _scrambled_state(num_qubits: int, backend: str) -> StabilizerState:
    """A graph state pushed through extra Cliffords + measurements.

    Plain graph states canonicalise trivially (their X block is already the
    identity); the scrambling makes the tableau generic so the benchmark
    exercises the real row-multiplication cost of verification.
    """
    rng = np.random.default_rng(7)
    edges = [(i, (i + 1) % num_qubits) for i in range(num_qubits)]
    extra = rng.choice(num_qubits, size=(2 * num_qubits, 2))
    edges.extend((int(u), int(v)) for u, v in extra if u != v)
    state = StabilizerState.from_graph_edges(num_qubits, edges, backend=backend)
    for q in range(0, num_qubits, 3):
        state.h(q)
        state.s((q + 1) % num_qubits)
        state.cnot(q, (q + num_qubits // 2) % num_qubits)
    for q in range(0, num_qubits, max(1, num_qubits // 8)):
        state.measure_z(q, forced_outcome=0)
    return state


def test_gf2_backend_speedup(benchmark):
    """Packed cut-rank and canonicalisation vs the dense oracle.

    At ``n >= 256`` qubits the packed backend must be at least
    ``MIN_KERNEL_SPEEDUP`` times faster on both kernels (typical measurements
    are 3-4x for cut-rank and far more for canonicalisation, whose dense
    path loops over qubits in Python).
    """
    n = KERNEL_QUBITS
    graph = _random_graph(n)
    subset = list(range(n // 2))

    def measure():
        dense_cut = _median_seconds(lambda: cut_rank(graph, subset, backend="dense"))
        packed_cut = _median_seconds(lambda: cut_rank(graph, subset, backend="packed"))

        dense_state = _scrambled_state(n, "dense")
        packed_state = _scrambled_state(n, "packed")
        assert np.array_equal(dense_state.r, packed_state.r)
        dense_canon = _median_seconds(
            lambda: canonical_stabilizer_matrix(dense_state), repeats=3
        )
        packed_canon = _median_seconds(
            lambda: canonical_stabilizer_matrix(packed_state), repeats=3
        )
        return dense_cut, packed_cut, dense_canon, packed_canon

    dense_cut, packed_cut, dense_canon, packed_canon = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    cut_speedup = dense_cut / packed_cut
    canon_speedup = dense_canon / packed_canon
    print()
    print(
        f"cut-rank @ {n} qubits: dense {dense_cut * 1e3:.2f} ms, "
        f"packed {packed_cut * 1e3:.2f} ms, speedup {cut_speedup:.1f}x"
    )
    print(
        f"canonicalisation @ {n} qubits: dense {dense_canon * 1e3:.2f} ms, "
        f"packed {packed_canon * 1e3:.2f} ms, speedup {canon_speedup:.1f}x"
    )
    benchmark.extra_info["cut_rank_speedup"] = cut_speedup
    benchmark.extra_info["canonicalisation_speedup"] = canon_speedup
    if n >= 256:
        assert cut_speedup >= MIN_KERNEL_SPEEDUP
        assert canon_speedup >= MIN_KERNEL_SPEEDUP


# --------------------------------------------------------------------------- #
# Incremental vs naive height function
# --------------------------------------------------------------------------- #


def test_height_function_incremental_speedup(benchmark):
    """One engine sweep vs one from-scratch cut rank per prefix.

    The heights must be bit-identical, and at ``n >= 256`` the incremental
    engine must be at least ``MIN_HEIGHT_SPEEDUP`` times faster than the
    naive evaluation on the same (packed) kernel.  The public
    ``height_function`` entry point must route to the engine-backed path.
    """
    n = HEIGHT_QUBITS
    graph = _random_graph(n)
    ordering = graph.vertices()

    def measure():
        naive_heights = naive_height_function(graph, ordering)
        engine_heights = CutRankEngine(graph, checkpoint=False).heights(ordering)
        assert engine_heights == naive_heights
        assert height_function(graph, ordering, backend="packed") == naive_heights
        naive_s = _median_seconds(
            lambda: naive_height_function(graph, ordering), repeats=3
        )
        engine_s = _median_seconds(
            lambda: CutRankEngine(graph, checkpoint=False).heights(ordering),
            repeats=3,
        )
        return naive_s, engine_s

    naive_s, engine_s = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = naive_s / engine_s
    print()
    print(
        f"height function @ {n} qubits: naive {naive_s * 1e3:.2f} ms, "
        f"incremental {engine_s * 1e3:.2f} ms, speedup {speedup:.1f}x"
    )
    benchmark.extra_info["height_function_speedup"] = speedup
    if n >= 256:
        assert speedup >= MIN_HEIGHT_SPEEDUP


# --------------------------------------------------------------------------- #
# Bitset reduction fast path: end-to-end compile
# --------------------------------------------------------------------------- #


def test_reduction_fast_path_speedup(benchmark):
    """Dense-oracle vs packed-bitset end-to-end ``compile_graph``.

    The packed backend runs the reduction engine on integer adjacency rows,
    scores partitioner LC candidates by exact packed deltas, and ranks
    candidate plans straight from op sequences.  The circuits must be
    bit-identical to the dense oracle's, and at ``n >= 256`` vertices the
    packed compile must be at least ``MIN_COMPILE_SPEEDUP`` times faster.
    """
    from repro.core.compiler import compile_graph

    n = COMPILE_QUBITS
    graph = _random_graph(n)

    def measure():
        packed_result = compile_graph(graph, gf2_backend="packed")
        dense_result = compile_graph(graph, gf2_backend="dense")
        assert packed_result.circuit.gates == dense_result.circuit.gates
        dense_s = _median_seconds(
            lambda: compile_graph(graph, gf2_backend="dense"), repeats=3
        )
        packed_s = _median_seconds(
            lambda: compile_graph(graph, gf2_backend="packed"), repeats=3
        )
        return dense_s, packed_s

    dense_s, packed_s = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = dense_s / packed_s
    print()
    print(
        f"compile_graph @ {n} vertices: dense {dense_s:.3f} s, "
        f"packed {packed_s:.3f} s, speedup {speedup:.1f}x"
    )
    benchmark.extra_info["compile_speedup"] = speedup
    if n >= 256:
        assert speedup >= MIN_COMPILE_SPEEDUP


# --------------------------------------------------------------------------- #
# Subgraph compile cache: cold vs warm on a repeated-leaf lattice sweep
# --------------------------------------------------------------------------- #


def test_subgraph_cache_warm_speedup(benchmark):
    """Cold-vs-warm ``compile_graph`` through the isomorphism-keyed cache.

    A lattice sweep is compiled with the cache disabled (cold — the
    historical behaviour) and then twice against one process cache.  The
    warm pass must observe a nonzero cache-hit rate (the partitioner emits
    the same leaf shapes over and over up to relabeling), warm circuits
    must be bit-identical to the cold compile, and at ``n >= 128`` the warm
    compile must be at least ``MIN_CACHE_SPEEDUP`` times faster than cold.
    """
    from repro.core.compile_cache import get_process_cache, reset_process_cache
    from repro.core.compiler import compile_graph
    from repro.graphs.generators import benchmark_graph

    sizes = (CACHE_QUBITS, max(8, CACHE_QUBITS // 2))
    graphs = [benchmark_graph("lattice", n) for n in sizes]

    def measure():
        cold_results = [compile_graph(g, subgraph_cache=False) for g in graphs]
        cold_s = _median_seconds(
            lambda: [compile_graph(g, subgraph_cache=False) for g in graphs],
            repeats=1,
        )
        reset_process_cache()
        [compile_graph(g) for g in graphs]  # populate the cache
        cache = get_process_cache()
        before = cache.stats.snapshot()
        warm_results = [compile_graph(g) for g in graphs]
        stats = cache.stats.delta(before)
        warm_s = _median_seconds(
            lambda: [compile_graph(g) for g in graphs], repeats=3
        )
        reset_process_cache()
        for cached, fresh in zip(warm_results, cold_results):
            assert cached.circuit.gates == fresh.circuit.gates
            assert cached.metrics == fresh.metrics
        return cold_s, warm_s, stats

    cold_s, warm_s, stats = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = cold_s / warm_s
    print()
    print(
        f"subgraph cache @ lattice {sizes}: cold {cold_s:.3f} s, "
        f"warm {warm_s:.3f} s, speedup {speedup:.1f}x, "
        f"hit rate {stats['hit_rate']:.2f}"
    )
    benchmark.extra_info["cache_speedup"] = speedup
    benchmark.extra_info["cache_hit_rate"] = stats["hit_rate"]
    assert stats["hits"] > 0
    assert stats["hit_rate"] > 0.0
    if CACHE_QUBITS >= 128:
        assert speedup >= MIN_CACHE_SPEEDUP


# --------------------------------------------------------------------------- #
# Anytime portfolio: quality vs deadline
# --------------------------------------------------------------------------- #


def test_portfolio_anytime_quality(benchmark):
    """Quality-vs-deadline curves of the anytime portfolio compiler.

    For every zoo family in the portfolio bench, the replayed anytime curve
    must be monotonically non-degrading as the deadline grows, every point
    must be at least as good as the natural-order rung (the portfolio's
    quality floor), and the live compile at the most generous deadline must
    finish inside it (p99-respects-deadline material at CI scale).
    """
    from repro.evaluation.perf import run_portfolio_bench

    def measure():
        return run_portfolio_bench(
            sizes=(PORTFOLIO_QUBITS,), deadlines_ms=PORTFOLIO_DEADLINES_MS
        )

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    print()
    assert rows
    for row in rows:
        curve = row["anytime_curve"]
        assert len(curve) == len(PORTFOLIO_DEADLINES_MS)
        natural = next(r for r in row["rungs"] if r["name"] == "natural")
        natural_quality = tuple(natural["quality"])

        def key(point):
            q = point["quality"]
            return (
                q["num_emitter_emitter_cnots"],
                q["average_photon_loss_duration"],
                q["duration"],
            )

        qualities = [key(point) for point in curve]
        for tighter, looser in zip(qualities, qualities[1:]):
            assert looser <= tighter, (
                f"{row['family']}: quality degraded as the deadline grew: "
                f"{tighter} -> {looser}"
            )
        for point, quality in zip(curve, qualities):
            assert quality <= natural_quality, (
                f"{row['family']} @ {point['deadline_ms']:g} ms: worse than "
                f"the natural baseline"
            )
        top = row["live"][-1]
        print(
            f"portfolio {row['family']} @ {row['num_vertices']} vertices: "
            f"winner {top['winner']!r} in {top['seconds_elapsed']:.3f}s "
            f"at {top['deadline_ms']:g} ms "
            f"({len(curve)} deadline points, {row['num_rungs']} rungs)"
        )
        assert not top["deadline_missed"], (
            f"{row['family']}: missed the most generous deadline "
            f"({top['deadline_ms']:g} ms, took {top['seconds_elapsed']:.3f}s)"
        )
    benchmark.extra_info["portfolio_families"] = [row["family"] for row in rows]


# --------------------------------------------------------------------------- #
# Streaming partition-compile: bounded memory
# --------------------------------------------------------------------------- #


def test_streaming_compile_memory_ceiling(benchmark):
    """Streamed compiles stay op-identical and memory-bounded.

    ``run_stream_bench`` verifies every size at or below its verify limit
    op-for-op against ``greedy_reduce`` on the materialised graph and trips
    an internal AssertionError when a family's traced-peak growth stops
    being sublinear in the vertex count.  On top of that, the largest
    streamed instance must stay under the ``REPRO_BENCH_STREAM_MEM_MB``
    traced-peak ceiling — the window, not the graph, owns the memory.
    """
    from repro.evaluation.perf import run_stream_bench

    def measure():
        return run_stream_bench(sizes=STREAM_SIZES)

    entries = benchmark.pedantic(measure, rounds=1, iterations=1)
    print()
    assert entries
    for entry in entries:
        print(
            f"stream {entry['family']} @ {entry['num_vertices']} vertices: "
            f"window {entry['window_capacity']}, "
            f"peak {entry['peak_traced_bytes'] / 1e6:.2f} MB, "
            f"{entry['elapsed_seconds']:.2f}s"
            + (" [verified]" if entry["verified_against_oracle"] else "")
        )
        assert entry["peak_window_photons"] <= entry["window_capacity"]
    ceiling_bytes = STREAM_MEM_MB * 1024 * 1024
    worst = max(entries, key=lambda e: e["peak_traced_bytes"])
    assert worst["peak_traced_bytes"] < ceiling_bytes, (
        f"{worst['family']} @ {worst['num_vertices']} vertices peaked at "
        f"{worst['peak_traced_bytes'] / 1e6:.1f} MB "
        f"(ceiling {STREAM_MEM_MB:g} MiB)"
    )
    benchmark.extra_info["stream_peak_bytes"] = worst["peak_traced_bytes"]
    benchmark.extra_info["stream_verified_points"] = sum(
        1 for e in entries if e["verified_against_oracle"]
    )


def test_streaming_compile_per_vertex_time_is_flat(benchmark):
    """Streamed compile time per vertex must not grow with the graph.

    Seeded percolated streams at 1,600 and 6,400 vertices, min of three runs
    each: per-vertex time at 6,400 may be at most
    ``MAX_STREAM_PER_VERTEX_GROWTH`` times that at 1,600.  A pass that scans
    the whole active emitter pool after every photon makes the compile
    super-linear and trips this guard.  The sizes are fixed (not an
    environment knob): the guard needs a 4x size range to see the growth.
    """
    from repro.core.streaming import compile_stream
    from repro.graphs.lazy import make_stream_spec

    sizes = (1600, 6400)

    def per_vertex_seconds(size: int) -> float:
        times = []
        for _ in range(3):
            spec = make_stream_spec("percolated", size, seed=2)
            start = time.perf_counter()
            compile_stream(spec)
            times.append(time.perf_counter() - start)
        return min(times) / spec.num_vertices

    small, large = benchmark.pedantic(
        lambda: tuple(per_vertex_seconds(n) for n in sizes), rounds=1, iterations=1
    )
    growth = large / small
    print()
    print(
        f"stream percolated: {small * 1e6:.1f} us/vertex @ {sizes[0]}, "
        f"{large * 1e6:.1f} us/vertex @ {sizes[1]}, growth {growth:.2f}x"
    )
    benchmark.extra_info["stream_per_vertex_growth"] = growth
    assert growth <= MAX_STREAM_PER_VERTEX_GROWTH
