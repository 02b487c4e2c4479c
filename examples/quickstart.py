"""Quickstart: compile a small graph state and inspect the result.

Run with::

    python examples/quickstart.py

The script builds a 3x4 lattice (cluster) graph state, compiles it with the
divide-and-conquer framework and with the GraphiQ-like baseline, verifies both
circuits on the stabilizer simulator, and prints the hardware-aware metrics
the paper optimises (#emitter-emitter CNOTs, circuit duration, photon loss).

It then shows the two scaling features behind every sweep in this repo:

* the GF(2) **backend switch** — all exact kernels (cut rank, tableau
  simulation, canonical forms) run on a word-packed ``np.uint64`` fast path
  by default, with the dense implementation kept as a bit-exact oracle
  (``backend="dense"`` / ``CompilerConfig(gf2_backend=...)`` /
  ``REPRO_GF2_BACKEND``);
* the **batch pipeline** — sweeps are declarative job lists fanned across a
  process pool with content-hash result caching.  The same machinery powers
  the CLI::

      repro batch --families lattice tree --sizes 10 20 30 \\
          --workers 4 --cache-dir .repro-cache

  (run it twice: the second invocation reports 100% cache hits);

* the **compilation service** — a long-running HTTP server that micro-batches
  concurrent requests onto the same pipeline and serves repeats from a
  persistent disk cache::

      repro serve --port 8765 --cache-dir .repro-service-cache
      repro loadgen --url http://127.0.0.1:8765 --families lattice --sizes 10

CI runs this script on every push (the ``docs`` job), so the quickstart in
the README can never rot.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import (
    BaselineCompiler,
    BatchJob,
    BatchRunner,
    CompilerConfig,
    EmitterCompiler,
    GraphSpec,
    ServiceClient,
    compile_graph,
    cut_rank,
    lattice_graph,
    start_server,
    verify_circuit_generates,
)


def main() -> None:
    # The README's 60-second quickstart, line for line.
    ours_quick = compile_graph(lattice_graph(3, 4), verify=True)
    base_quick = BaselineCompiler(verify=True).compile(lattice_graph(3, 4))
    print(
        "emitter-emitter CNOTs:", ours_quick.num_emitter_emitter_cnots,
        "vs baseline", base_quick.metrics.num_emitter_emitter_cnots,
    )
    print("verified on the stabilizer simulator:", ours_quick.verified)
    print()

    graph = lattice_graph(3, 4)
    print(
        f"Target: 3x4 lattice graph state "
        f"({graph.num_vertices} photons, {graph.num_edges} edges)"
    )
    print()

    config = CompilerConfig(
        max_subgraph_size=7,
        lc_budget=15,
        emitter_limit_factor=1.5,
        verify=True,  # re-simulate on the stabilizer tableau
    )
    ours = EmitterCompiler(config).compile(graph)
    baseline = BaselineCompiler(verify=True).compile(graph)

    print("Framework (this paper)")
    print(f"  emitter-emitter CNOTs : {ours.num_emitter_emitter_cnots}")
    print(f"  circuit duration      : {ours.duration:.2f} tau_QD")
    print(f"  avg photon wait (Tloss): {ours.average_photon_loss_duration:.2f} tau_QD")
    print(f"  state loss probability: {ours.photon_loss_probability:.4f}")
    print(f"  emitters (min / limit): {ours.minimum_emitters} / {ours.emitter_limit}")
    print(f"  subgraphs / stem edges: {ours.partition.num_blocks} / {ours.num_stem_edges}")
    print(f"  verified              : {ours.verified}")
    print()
    print("Baseline (GraphiQ-like, natural order, minimal emitters, ASAP)")
    print(f"  emitter-emitter CNOTs : {baseline.metrics.num_emitter_emitter_cnots}")
    print(f"  circuit duration      : {baseline.metrics.duration:.2f} tau_QD")
    print(f"  state loss probability: {baseline.metrics.photon_loss_probability:.4f}")
    print(f"  verified              : {baseline.verified}")
    print()

    cnot_red = 100 * (
        baseline.metrics.num_emitter_emitter_cnots - ours.num_emitter_emitter_cnots
    ) / max(baseline.metrics.num_emitter_emitter_cnots, 1)
    dur_red = 100 * (baseline.metrics.duration - ours.duration) / baseline.metrics.duration
    print(f"Reduction: {cnot_red:.0f}% emitter-emitter CNOTs, {dur_red:.0f}% circuit duration")
    print()

    # Independent re-verification through the public helper (what the tests use).
    assert verify_circuit_generates(
        ours.circuit, graph, photon_of_vertex=ours.sequence.photon_of_vertex
    )
    print("First 20 gates of the framework circuit:")
    print(ours.circuit.pretty(max_gates=20))
    print()

    # Backend switch: the packed fast path is bit-exact with the dense oracle.
    subset = list(graph.vertices())[: graph.num_vertices // 2]
    packed_rank = cut_rank(graph, subset, backend="packed")
    dense_rank = cut_rank(graph, subset, backend="dense")
    assert packed_rank == dense_rank
    print(f"Cut rank across a half split: {packed_rank} (packed == dense oracle)")
    print()

    # Batch pipeline: a small sweep through the process-pool runner.  Pass
    # cache_dir= to persist results; a repeated run then only reports hits.
    jobs = [BatchJob(graph=GraphSpec("lattice", size)) for size in (9, 12, 16)]
    report = BatchRunner(max_workers=2).run(jobs)
    print("Batch sweep (lattice 9/12/16):")
    for outcome in report.outcomes:
        record = outcome.result
        print(
            f"  {outcome.job.label}: "
            f"{record['ours']['num_emitter_emitter_cnots']} ee-CNOTs vs "
            f"{record['baseline']['num_emitter_emitter_cnots']} baseline "
            f"({outcome.elapsed_seconds:.2f}s)"
        )
    print(f"  summary: {report.summary()}")
    print()

    # Compilation service: serve the same pipeline over HTTP.  The second
    # identical request is answered from the result cache.
    import tempfile

    with tempfile.TemporaryDirectory(prefix="repro-quickstart-cache-") as cache_dir:
        server, _ = start_server(cache_dir=cache_dir)  # free port, in-process
        try:
            host, port = server.server_address[:2]
            client = ServiceClient(f"http://{host}:{port}")
            client.wait_until_ready()
            first = client.compile(family="lattice", size=9, kind="compile")
            second = client.compile(family="lattice", size=9, kind="compile")
            print("Service round-trip:")
            print(f"  first request:  ok={first['ok']} cache_hit={first['cache_hit']}")
            print(f"  second request: ok={second['ok']} cache_hit={second['cache_hit']}")
            assert second["cache_hit"], "repeat request should be served from cache"
            hits = next(
                line for line in client.metrics().splitlines()  # GET /metrics
                if line.startswith("repro_worker_result_cache_hits_total ")
            )
            print(f"  metrics: {hits}")
        finally:
            server.shutdown()
            server.server_close()


if __name__ == "__main__":
    main()
