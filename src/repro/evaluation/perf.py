"""Perf-trajectory benchmark behind ``repro bench``.

Five sections pin the compiler's perf trajectory:

* **height function** — the naive from-scratch evaluation (one rank solve
  per prefix, the historical implementation) against the incremental
  :class:`repro.graphs.incremental.CutRankEngine` sweep, checking
  bit-identical heights;
* **end-to-end compile** — :func:`repro.core.compiler.compile_graph` on the
  ``dense`` backend (networkx reduction state, copy-based LC scoring — the
  historical path, kept as the oracle) against the ``packed`` backend
  (bitset reduction engine, LC delta scoring, op-sequence plan scoring),
  checking bit-identical circuits.  The subgraph compile cache is disabled
  here so the section keeps measuring the kernels themselves;
* **subgraph compile cache** — cold-vs-warm ``compile_graph`` on the
  repeated-leaf zoo families (lattice / rotated surface code / random
  regular): uncached, empty-cache and warm-cache timings plus the hit
  rate, checking that warm circuits are bit-identical to uncached ones and
  still verify on the stabilizer simulator;
* **anytime portfolio** — quality-vs-deadline curves of the
  :class:`repro.core.portfolio.PortfolioCompiler` across zoo families: each
  strategy rung timed once and replayed against a deadline grid (the curve
  is monotone by construction — the CI gate), plus live deadline-bounded
  compiles recording elapsed time and deadline misses;
* **streaming compile** — bounded-window partition-compiles of >= 1e5-vertex
  lattice/GHZ families under ``tracemalloc``, with a sublinear-peak-memory
  guard and (at small sizes) bit-identity against the whole-graph oracle.

Every section also records its :mod:`tracemalloc` peak in
``peak_memory_bytes``.  ``repro bench`` writes the result to
``BENCH_emitters.json`` so future PRs (and the CI bench-smoke artifact) can
diff the numbers instead of guessing.
"""

from __future__ import annotations

import json
import platform
import subprocess
import time
import tracemalloc
from pathlib import Path
from typing import Callable, Hashable, Sequence

import numpy as np

from repro.core.ordering import optimize_emission_ordering
from repro.graphs.entanglement import cut_rank
from repro.graphs.graph_state import GraphState
from repro.graphs.incremental import CutRankEngine
from repro.utils.backend import get_default_backend, resolve_backend, use_backend

__all__ = [
    "CACHE_BENCH_FAMILIES",
    "DEFAULT_BENCH_SIZES",
    "DEFAULT_CACHE_SIZES",
    "DEFAULT_COMPILE_SIZES",
    "DEFAULT_PORTFOLIO_DEADLINES_MS",
    "DEFAULT_PORTFOLIO_SIZES",
    "DEFAULT_STREAM_SIZES",
    "PORTFOLIO_BENCH_FAMILIES",
    "STREAM_BENCH_FAMILIES",
    "bench_graph",
    "naive_height_function",
    "run_cache_bench",
    "run_compile_bench",
    "run_emitter_bench",
    "run_portfolio_bench",
    "run_stream_bench",
    "write_bench_file",
]

Vertex = Hashable

#: Default sweep for ``repro bench``: the assertion threshold sits at 256;
#: 512 is the paper-scale point the trajectory targets (>= 10x incremental).
DEFAULT_BENCH_SIZES = (64, 128, 256, 512)

#: Default sweep for the end-to-end compile section (the dense comparator
#: compiles each size once per repeat, so the sweep stays modest).
DEFAULT_COMPILE_SIZES = (32, 64, 128, 256)

#: Default sweep for the subgraph-compile-cache section (vertex counts; the
#: surface family rounds to the closest odd code distance).
DEFAULT_CACHE_SIZES = (128, 256)

#: Repeated-leaf zoo families measured by the cache section: their
#: partitions emit the same small subgraphs over and over up to relabeling.
CACHE_BENCH_FAMILIES = ("lattice", "surface", "regular")

#: Default sweep for the anytime-portfolio section (vertex counts; small
#: enough that every rung finishes quickly).
DEFAULT_PORTFOLIO_SIZES = (16, 24)

#: Default deadline grid for the anytime-portfolio section: from "barely
#: the natural rung" to "the whole portfolio".
DEFAULT_PORTFOLIO_DEADLINES_MS = (50.0, 200.0, 1000.0, 5000.0)

#: Zoo families swept by the portfolio section — a dense random family, a
#: structured rewired one, and a star-shaped family the selector halves the
#: anneal budget for.
PORTFOLIO_BENCH_FAMILIES = ("regular", "smallworld", "ghz")

#: Default vertex counts for the streaming-compile section.  The top size is
#: the paper-scale >= 1e5-vertex point the tentpole targets; the 4x size
#: ratio against the lower point is what the sublinear-memory guard checks.
DEFAULT_STREAM_SIZES = (25_600, 102_400)

#: Families swept by the streaming section: the 2-D lattice (window =
#: O(sqrt(n)) for square grids) and the GHZ star (window = one leaf chunk
#: plus the pinned hub).
STREAM_BENCH_FAMILIES = ("lattice", "ghz")

#: Streamed compiles at or below this vertex count are additionally verified
#: bit-identical against ``greedy_reduce`` on the materialised graph.
STREAM_VERIFY_LIMIT = 2_500


def bench_graph(num_vertices: int, seed: int = 2025) -> GraphState:
    """The benchmark's random graph: ~6 random edges per vertex.

    Dense enough that cut ranks are non-trivial at every prefix, sparse
    enough to be realistic for photonic resource states.
    """
    rng = np.random.default_rng(seed)
    graph = GraphState(vertices=range(num_vertices))
    if num_vertices < 2:
        return graph
    for _ in range(6 * num_vertices):
        u, v = rng.choice(num_vertices, size=2, replace=False)
        graph.add_edge(int(u), int(v))
    return graph


def naive_height_function(
    graph: GraphState,
    ordering: Sequence[Vertex] | None = None,
    backend: str | None = None,
) -> list[int]:
    """The pre-incremental height function: one cut rank per prefix.

    Kept as the from-scratch comparator for the incremental engine — the
    same GF(2) kernel, but ``O(n)`` independent rank solves instead of one
    online sweep (``O(n^4 / w)`` vs ``O(n^3 / w)`` per ordering).
    """
    if ordering is None:
        ordering = graph.vertices()
    ordering = list(ordering)
    if set(ordering) != set(graph.vertices()) or len(ordering) != graph.num_vertices:
        raise ValueError("ordering must be a permutation of the graph's vertices")
    heights = [0]
    for i in range(1, len(ordering) + 1):
        heights.append(cut_rank(graph, ordering[:i], backend=backend))
    return heights


def _median_seconds(func: Callable[[], object], repeats: int) -> float:
    times = []
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        func()
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


def _git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except OSError:  # pragma: no cover - git missing entirely
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_compile_bench(
    sizes: Sequence[int] = DEFAULT_COMPILE_SIZES,
    repeats: int = 2,
    seed: int = 2025,
) -> list[dict]:
    """Measure end-to-end ``compile_graph`` on the dense vs packed backends.

    For every size the two backends are first checked to produce
    *bit-identical* circuits (the packed reduction engine is exact, not a
    heuristic), then timed; medians and the speedup are reported together
    with the compiled circuit's headline metrics.  The subgraph compile
    cache is disabled throughout so the section keeps measuring the GF(2)
    kernels rather than memoized leaf searches (the cache has its own
    section, :func:`run_cache_bench`).

    Parameters
    ----------
    sizes : Sequence[int], optional
        Graph sizes (vertices) to sweep.
    repeats : int, optional
        Timing repetitions per backend and size; the median is reported.
    seed : int, optional
        Graph-sampling seed.

    Returns
    -------
    list[dict]
        One JSON-serialisable entry per size.
    """
    from repro.core.compiler import compile_graph

    results = []
    for size in sizes:
        graph = bench_graph(int(size), seed=seed)
        packed_result = compile_graph(graph, gf2_backend="packed", subgraph_cache=False)
        dense_result = compile_graph(graph, gf2_backend="dense", subgraph_cache=False)
        if packed_result.circuit.gates != dense_result.circuit.gates:
            raise AssertionError(  # pragma: no cover - correctness guard
                f"packed compile diverges from the dense oracle at size {size}"
            )
        packed_median = _median_seconds(
            lambda g=graph: compile_graph(g, gf2_backend="packed", subgraph_cache=False),
            repeats,
        )
        dense_median = _median_seconds(
            lambda g=graph: compile_graph(g, gf2_backend="dense", subgraph_cache=False),
            repeats,
        )
        results.append(
            {
                "size": int(size),
                "num_edges": graph.num_edges,
                "naive_median_seconds": dense_median,
                "packed_median_seconds": packed_median,
                "speedup": (
                    dense_median / packed_median
                    if packed_median > 0
                    else float("inf")
                ),
                "num_emitter_emitter_cnots": (
                    packed_result.metrics.num_emitter_emitter_cnots
                ),
                "num_emitters": packed_result.metrics.num_emitters,
            }
        )
    return results


def _cache_bench_spec(family: str, size: int):
    """A :class:`repro.pipeline.jobs.GraphSpec` of roughly ``size`` vertices.

    The ``surface`` family is parameterised by code distance (``2 d^2 - 1``
    vertices), so the requested vertex count is rounded to the closest odd
    distance ``>= 3``.
    """
    from repro.pipeline.jobs import GraphSpec

    if family == "surface":
        import math

        distance = max(3, round(math.sqrt((size + 1) / 2)))
        if distance % 2 == 0:
            distance += 1
        return GraphSpec(family=family, size=distance)
    return GraphSpec(family=family, size=size)


def run_cache_bench(
    sizes: Sequence[int] = DEFAULT_CACHE_SIZES,
    repeats: int = 2,
    families: Sequence[str] = CACHE_BENCH_FAMILIES,
) -> list[dict]:
    """Cold-vs-warm ``compile_graph`` through the subgraph compile cache.

    For every ``(family, size)`` point three configurations are timed:

    * ``cold`` — ``subgraph_cache=False``: every leaf search runs, the
      historical (pre-cache) behaviour;
    * ``first_run`` — an *empty* process cache (isomorphic leaves within the
      one graph already coalesce, but every distinct leaf is searched once);
    * ``warm`` — the populated cache (every leaf is a hit).

    Warm circuits are asserted bit-identical to the cold compile and
    re-verified on the stabilizer simulator — the cache may only ever change
    *where* a result comes from, never what it is.

    Parameters
    ----------
    sizes : Sequence[int], optional
        Approximate vertex counts to sweep.
    repeats : int, optional
        Timing repetitions per configuration; the median is reported.
    families : Sequence[str], optional
        Zoo families to measure (default: the repeated-leaf trio).

    Returns
    -------
    list[dict]
        One JSON-serialisable entry per ``(family, size)`` point.
    """
    from repro.circuit.validation import verify_circuit_generates
    from repro.core.compile_cache import get_process_cache, reset_process_cache
    from repro.core.compiler import compile_graph

    results = []
    for size in sizes:
        for family in families:
            spec = _cache_bench_spec(family, int(size))
            graph = spec.build()

            cold_result = compile_graph(graph, subgraph_cache=False)
            cold_median = _median_seconds(
                lambda g=graph: compile_graph(g, subgraph_cache=False), repeats
            )

            first_run_times = []
            for _ in range(max(1, repeats)):
                # A first run must start from an empty cache every time.
                reset_process_cache()
                start = time.perf_counter()
                compile_graph(graph)
                first_run_times.append(time.perf_counter() - start)
            first_run_median = sorted(first_run_times)[len(first_run_times) // 2]

            cache = get_process_cache()
            stats_before = cache.stats.snapshot()
            warm_result = compile_graph(graph)
            warm_stats = cache.stats.delta(stats_before)
            warm_median = _median_seconds(lambda g=graph: compile_graph(g), repeats)
            reset_process_cache()

            if warm_result.circuit.gates != cold_result.circuit.gates:
                raise AssertionError(  # pragma: no cover - correctness guard
                    f"warm-cache compile diverges from the cold compile "
                    f"for {family} at size {size}"
                )
            if not verify_circuit_generates(
                warm_result.circuit,
                graph,
                photon_of_vertex=warm_result.sequence.photon_of_vertex,
            ):
                raise AssertionError(  # pragma: no cover - correctness guard
                    f"warm-cache circuit fails verification for {family} "
                    f"at size {size}"
                )

            results.append(
                {
                    "family": family,
                    "size": int(size),
                    "spec_size": spec.size,
                    "num_vertices": graph.num_vertices,
                    "num_edges": graph.num_edges,
                    "cold_median_seconds": cold_median,
                    "first_run_median_seconds": first_run_median,
                    "warm_median_seconds": warm_median,
                    "warm_speedup": (
                        cold_median / warm_median if warm_median > 0 else float("inf")
                    ),
                    "first_run_speedup": (
                        first_run_median / warm_median
                        if warm_median > 0
                        else float("inf")
                    ),
                    "warm_hit_rate": warm_stats["hit_rate"],
                    "warm_hits": warm_stats["hits"],
                    "warm_misses": warm_stats["misses"],
                    "num_emitter_emitter_cnots": (
                        warm_result.metrics.num_emitter_emitter_cnots
                    ),
                }
            )
    return results


def _quality_dict(quality) -> dict:
    """The portfolio quality triple as a keyed JSON object."""
    return {
        "num_emitter_emitter_cnots": quality[0],
        "average_photon_loss_duration": quality[1],
        "duration": quality[2],
    }


def run_portfolio_bench(
    sizes: Sequence[int] = DEFAULT_PORTFOLIO_SIZES,
    deadlines_ms: Sequence[float] = DEFAULT_PORTFOLIO_DEADLINES_MS,
    seed: int = 2025,
    families: Sequence[str] = PORTFOLIO_BENCH_FAMILIES,
) -> list[dict]:
    """Anytime-portfolio quality vs deadline across zoo families.

    For every ``(family, size)`` point the full portfolio is compiled once
    with every rung timed individually, then the per-rung timings are
    *replayed* against each deadline: a rung is counted as within budget
    when the cumulative rung time still fits (rung 0, the natural order,
    always runs — matching :class:`repro.core.portfolio.PortfolioCompiler`
    semantics).  Because larger deadlines admit a superset of rungs and the
    reported quality is the best over the admitted prefix, the replayed
    ``anytime_curve`` is monotonically non-degrading by construction —
    which is exactly the property the CI bench-smoke gate asserts, without
    the noise of live wall clocks.

    A second ``live`` sub-section then runs one *real* deadline-bounded
    compile per grid point, recording the elapsed time and whether the
    deadline was missed, so the record also shows actual anytime behaviour
    (p99 / miss-rate material for the tracked ``BENCH_emitters.json``).

    Parameters
    ----------
    sizes : Sequence[int], optional
        Approximate vertex counts to sweep.
    deadlines_ms : Sequence[float], optional
        Deadline grid in milliseconds (swept in increasing order).
    seed : int, optional
        Recorded for provenance (the zoo specs are seeded internally).
    families : Sequence[str], optional
        Zoo families to measure.

    Returns
    -------
    list[dict]
        One JSON-serialisable entry per ``(family, size)`` point with
        ``rungs``, ``anytime_curve`` and ``live`` sub-sections.
    """
    from repro.core.portfolio import PortfolioCompiler
    from repro.evaluation.experiments import fast_config

    grid = sorted(float(d) for d in deadlines_ms)
    results = []
    for size in sizes:
        for family in families:
            spec = _cache_bench_spec(family, int(size))
            graph = spec.build()
            config = fast_config()
            full = PortfolioCompiler(config).compile(graph, family=family)

            curve = []
            for deadline in grid:
                elapsed_ms = 0.0
                admitted = 0
                best = None
                for index, outcome in enumerate(full.outcomes):
                    cost_ms = outcome.seconds * 1000.0
                    if index > 0 and elapsed_ms + cost_ms > deadline:
                        break
                    elapsed_ms += cost_ms
                    admitted += 1
                    if best is None or outcome.quality < best:
                        best = outcome.quality
                curve.append(
                    {
                        "deadline_ms": deadline,
                        "rungs_run": admitted,
                        "replay_ms": elapsed_ms,
                        "quality": _quality_dict(best),
                    }
                )

            live = []
            for deadline in grid:
                run = PortfolioCompiler(config).compile(
                    graph, deadline_ms=deadline, family=family
                )
                live.append(
                    {
                        "deadline_ms": deadline,
                        "winner": run.winner,
                        "deadline_missed": run.deadline_missed,
                        "seconds_elapsed": run.elapsed_seconds,
                        "rungs_run": sum(
                            1 for o in run.outcomes if o.status == "ran"
                        ),
                        "quality": _quality_dict(run.quality),
                    }
                )

            results.append(
                {
                    "family": family,
                    "size": int(size),
                    "spec_size": spec.size,
                    "num_vertices": graph.num_vertices,
                    "num_edges": graph.num_edges,
                    "seed": int(seed),
                    "num_rungs": len(full.outcomes),
                    "winner": full.winner,
                    "rungs": [o.as_record() for o in full.outcomes],
                    "anytime_curve": curve,
                    "live": live,
                }
            )
    return results


def _traced_peak(func: Callable[[], object]) -> tuple[object, int]:
    """Run ``func`` and return ``(result, peak traced bytes)``.

    Uses :mod:`tracemalloc` so the figure is allocation truth, not RSS noise.
    Nest-safe: when tracing is already active the peak counter is reset
    instead of restarted, so sections can wrap sub-sections.
    """
    already = tracemalloc.is_tracing()
    if not already:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        result = func()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not already:
            tracemalloc.stop()
    return result, int(peak)


def run_stream_bench(
    sizes: Sequence[int] = DEFAULT_STREAM_SIZES,
    families: Sequence[str] = STREAM_BENCH_FAMILIES,
    seed: int = 2025,
    chunk: int | None = 1,
    verify_limit: int = STREAM_VERIFY_LIMIT,
) -> list[dict]:
    """Streaming partition-compiles with tracked (sublinear) peak memory.

    Every ``(family, size)`` point runs one :func:`repro.core.streaming.
    compile_stream` under :mod:`tracemalloc` and records the traced peak,
    the window statistics and the compile outcome.  Sizes at or below
    ``verify_limit`` are additionally compiled with operation collection and
    asserted **bit-identical** to ``greedy_reduce`` on the materialised
    graph — the CI smoke run drives this path with tiny sizes.

    After the sweep, every family whose largest/smallest size ratio is at
    least 4 must show a traced-peak ratio below three quarters of the size
    ratio — the sublinear-memory guard (square lattices scale the window as
    ``O(sqrt(n))``, the GHZ star as ``O(1)``, so real regressions trip it
    with a wide margin).  The guard only applies when the smallest swept
    size has at least 2048 vertices: below that, fixed per-compile
    overheads dominate the traced peak and the ratio is noise, so tiny CI
    sweeps rely on the absolute memory ceiling instead.

    Parameters
    ----------
    sizes : Sequence[int], optional
        Approximate vertex counts to sweep.
    families : Sequence[str], optional
        Streaming families (subset of
        :data:`repro.graphs.lazy.STREAM_FAMILIES`).
    seed : int, optional
        Spec seed (stochastic families only).
    chunk : int | None, optional
        Region size override (lattice rows per band / GHZ leaves per chunk);
        ``None`` keeps each family's default.  The default of 1 lattice row
        per band gives square grids their minimal ``O(sqrt(n))`` window.
    verify_limit : int, optional
        Largest size that is verified against the whole-graph oracle.

    Returns
    -------
    list[dict]
        One JSON-serialisable entry per ``(family, size)`` point.
    """
    from repro.core.strategies import greedy_reduce
    from repro.core.streaming import compile_stream
    from repro.graphs.lazy import make_stream_spec

    results = []
    for family in families:
        family_entries = []
        for size in sizes:
            spec = make_stream_spec(family, int(size), seed=seed, chunk=chunk)
            if spec.num_vertices <= verify_limit:
                streamed = compile_stream(spec, collect_operations=True)
                oracle = greedy_reduce(spec.materialize())
                if (
                    streamed.operations != oracle.operations
                    or streamed.num_emitters != oracle.num_emitters
                ):
                    raise AssertionError(  # pragma: no cover - correctness guard
                        f"streamed {family} compile diverges from the "
                        f"whole-graph oracle at size {size}"
                    )
            result, peak_bytes = _traced_peak(lambda s=spec: compile_stream(s))
            family_entries.append(
                {
                    "family": family,
                    "size": int(size),
                    "num_vertices": result.num_vertices,
                    "num_regions": result.num_regions,
                    "window_capacity": result.window_capacity,
                    "peak_window_photons": result.peak_window_photons,
                    "num_emitters": result.num_emitters,
                    "num_operations": result.num_operations,
                    "num_emissions": result.num_emissions,
                    "num_emitter_emitter_gates": result.num_emitter_emitter_gates,
                    "elapsed_seconds": result.elapsed_seconds,
                    "peak_traced_bytes": peak_bytes,
                    "verified_against_oracle": spec.num_vertices <= verify_limit,
                }
            )
        if len(family_entries) >= 2:
            smallest = min(family_entries, key=lambda e: e["num_vertices"])
            largest = max(family_entries, key=lambda e: e["num_vertices"])
            size_ratio = largest["num_vertices"] / max(1, smallest["num_vertices"])
            peak_ratio = largest["peak_traced_bytes"] / max(
                1, smallest["peak_traced_bytes"]
            )
            if (
                size_ratio >= 4.0
                and smallest["num_vertices"] >= 2048
                and peak_ratio > 0.75 * size_ratio
            ):
                raise AssertionError(  # pragma: no cover - correctness guard
                    f"streamed {family} peak memory is not sublinear: "
                    f"peak ratio {peak_ratio:.2f} vs size ratio {size_ratio:.2f}"
                )
            for entry in family_entries:
                entry["family_size_ratio"] = size_ratio
                entry["family_peak_ratio"] = peak_ratio
        results.extend(family_entries)
    return results


def run_emitter_bench(
    sizes: Sequence[int] = DEFAULT_BENCH_SIZES,
    repeats: int = 3,
    seed: int = 2025,
    backend: str | None = None,
    compile_sizes: Sequence[int] = DEFAULT_COMPILE_SIZES,
    cache_sizes: Sequence[int] = DEFAULT_CACHE_SIZES,
    portfolio_sizes: Sequence[int] = DEFAULT_PORTFOLIO_SIZES,
    portfolio_deadlines_ms: Sequence[float] = DEFAULT_PORTFOLIO_DEADLINES_MS,
    stream_sizes: Sequence[int] = DEFAULT_STREAM_SIZES,
) -> dict:
    """Measure naive-vs-incremental height functions across ``sizes``.

    Parameters
    ----------
    sizes : Sequence[int], optional
        Graph sizes (vertices) to sweep.
    repeats : int, optional
        Timing repetitions per point; the median is reported.
    seed : int, optional
        Graph-sampling seed.
    backend : str | None, optional
        GF(2) backend for both evaluations (``None`` = process default).
    compile_sizes : Sequence[int], optional
        Graph sizes for the end-to-end compile section
        (:func:`run_compile_bench`); empty disables the section.
    cache_sizes : Sequence[int], optional
        Vertex counts for the subgraph-compile-cache section
        (:func:`run_cache_bench`); empty disables the section.
    portfolio_sizes : Sequence[int], optional
        Vertex counts for the anytime-portfolio section
        (:func:`run_portfolio_bench`); empty disables the section.
    portfolio_deadlines_ms : Sequence[float], optional
        Deadline grid for the anytime-portfolio section.
    stream_sizes : Sequence[int], optional
        Vertex counts for the streaming-compile section
        (:func:`run_stream_bench`); empty disables the section.

    Returns
    -------
    dict
        JSON-serialisable record: metadata (backend, git revision, python,
        timestamp) plus one entry per size with median seconds for the naive
        and incremental paths, the speedup, and the natural/greedy ordering
        peaks (the emitter counts the new ordering axis improves), a
        ``compile_results`` section with dense-vs-packed end-to-end
        ``compile_graph`` medians per size, a ``cache_results`` section
        with cold-vs-warm compile-cache medians per zoo family and size,
        a ``portfolio_results`` section with anytime quality-vs-deadline
        curves per zoo family and size, a ``stream_results`` section with
        bounded-window streaming compiles, and ``peak_memory_bytes`` with the
        tracemalloc peak of every section.
    """
    resolved = resolve_backend(backend)

    def heights_section() -> list[dict]:
        results = []
        with use_backend(resolved):
            for size in sizes:
                graph = bench_graph(int(size), seed=seed)
                ordering = graph.vertices()
                naive = naive_height_function(graph, ordering)
                incremental = CutRankEngine(graph, checkpoint=False).heights(ordering)
                if naive != incremental:  # pragma: no cover - correctness guard
                    raise AssertionError(
                        f"incremental heights diverge from the naive oracle at "
                        f"size {size}"
                    )
                naive_median = _median_seconds(
                    lambda g=graph, o=ordering: naive_height_function(g, o), repeats
                )
                incremental_median = _median_seconds(
                    lambda g=graph, o=ordering: CutRankEngine(
                        g, checkpoint=False
                    ).heights(o),
                    repeats,
                )
                greedy = optimize_emission_ordering(graph, strategy="greedy")
                results.append(
                    {
                        "size": int(size),
                        "num_edges": graph.num_edges,
                        "naive_median_seconds": naive_median,
                        "incremental_median_seconds": incremental_median,
                        "speedup": (
                            naive_median / incremental_median
                            if incremental_median > 0
                            else float("inf")
                        ),
                        "natural_peak": max(naive),
                        "greedy_peak": greedy.peak_height,
                    }
                )
        return results

    peak_memory: dict[str, int] = {}
    results, peak_memory["heights"] = _traced_peak(heights_section)
    # The dense comparator makes end-to-end compiles expensive; cap the
    # compile-section repeats and record the capped value separately so two
    # records stay comparable.
    compile_repeats = min(int(repeats), 2)
    compile_results, peak_memory["compile"] = _traced_peak(
        lambda: run_compile_bench(sizes=compile_sizes, repeats=compile_repeats, seed=seed)
    )
    cache_results, peak_memory["cache"] = _traced_peak(
        lambda: run_cache_bench(sizes=cache_sizes, repeats=compile_repeats)
    )
    portfolio_results, peak_memory["portfolio"] = _traced_peak(
        lambda: run_portfolio_bench(
            sizes=portfolio_sizes, deadlines_ms=portfolio_deadlines_ms, seed=seed
        )
    )
    stream_results, peak_memory["stream"] = _traced_peak(
        lambda: run_stream_bench(sizes=stream_sizes, seed=seed) if stream_sizes else []
    )
    return {
        "benchmark": "emitters",
        "backend": resolved,
        "default_backend": get_default_backend(),
        "git_rev": _git_revision(),
        "python": platform.python_version(),
        "seed": int(seed),
        "repeats": int(repeats),
        "created_at_unix": time.time(),
        "sizes": [int(s) for s in sizes],
        "results": results,
        "compile_sizes": [int(s) for s in compile_sizes],
        "compile_repeats": compile_repeats,
        "compile_results": compile_results,
        "cache_sizes": [int(s) for s in cache_sizes],
        "cache_families": list(CACHE_BENCH_FAMILIES),
        "cache_results": cache_results,
        "portfolio_sizes": [int(s) for s in portfolio_sizes],
        "portfolio_deadlines_ms": [float(d) for d in portfolio_deadlines_ms],
        "portfolio_families": list(PORTFOLIO_BENCH_FAMILIES),
        "portfolio_results": portfolio_results,
        "stream_sizes": [int(s) for s in stream_sizes],
        "stream_families": list(STREAM_BENCH_FAMILIES),
        "stream_results": stream_results,
        "peak_memory_bytes": peak_memory,
    }


def write_bench_file(
    path: str | Path,
    sizes: Sequence[int] = DEFAULT_BENCH_SIZES,
    repeats: int = 3,
    seed: int = 2025,
    backend: str | None = None,
    compile_sizes: Sequence[int] = DEFAULT_COMPILE_SIZES,
    cache_sizes: Sequence[int] = DEFAULT_CACHE_SIZES,
    portfolio_sizes: Sequence[int] = DEFAULT_PORTFOLIO_SIZES,
    portfolio_deadlines_ms: Sequence[float] = DEFAULT_PORTFOLIO_DEADLINES_MS,
    stream_sizes: Sequence[int] = DEFAULT_STREAM_SIZES,
) -> dict:
    """Run :func:`run_emitter_bench` and dump the record to ``path``."""
    record = run_emitter_bench(
        sizes=sizes,
        repeats=repeats,
        seed=seed,
        backend=backend,
        compile_sizes=compile_sizes,
        cache_sizes=cache_sizes,
        portfolio_sizes=portfolio_sizes,
        portfolio_deadlines_ms=portfolio_deadlines_ms,
        stream_sizes=stream_sizes,
    )
    path = Path(path)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record
