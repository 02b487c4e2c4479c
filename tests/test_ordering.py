"""Tests for the emission-ordering optimiser and its plumbing.

Covers the optimiser guarantee (never worse than the natural order), the
compiler integration (verified circuits under ``ordering_strategy=anneal``),
and the configuration / batch-pipeline / CLI / HTTP wire format exposure.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import EXIT_OK, main
from repro.core.compiler import compile_graph
from repro.core.config import CompilerConfig
from repro.core.ordering import (
    ORDERING_STRATEGIES,
    optimize_emission_ordering,
)
from repro.graphs.entanglement import height_function, minimum_emitters
from repro.graphs.generators import (
    lattice_graph,
    linear_cluster,
    waxman_graph,
)
from repro.graphs.graph_state import GraphState
from repro.pipeline.jobs import BatchJob, GraphSpec, run_job
from repro.evaluation.experiments import sweep_jobs

ZOO_FAMILIES = ("regular", "smallworld", "erdos", "percolated", "ghz")


class TestOptimizer:
    @given(
        strategy=st.sampled_from(ORDERING_STRATEGIES),
        family=st.sampled_from(ZOO_FAMILIES),
        size=st.integers(4, 12),
        seed=st.integers(0, 2_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_peak_never_above_natural_baseline(self, strategy, family, size, seed):
        graph = GraphSpec(family=family, size=size, seed=seed).build()
        result = optimize_emission_ordering(
            graph, strategy=strategy, seed=seed, iterations=40
        )
        natural_peak = max(height_function(graph))
        assert result.natural_peak == natural_peak
        assert result.peak_height <= natural_peak
        # The reported peak is the real height profile of the ordering.
        assert result.peak_height == max(height_function(graph, list(result.ordering)))
        assert sorted(result.ordering, key=repr) == sorted(
            graph.vertices(), key=repr
        )

    def test_greedy_improves_the_lattice(self):
        # Row-major emission of a 3x4 lattice needs 4 emitters; column-major
        # needs 3 — the greedy descent must find a peak of at most 3.
        graph = lattice_graph(3, 4)
        result = optimize_emission_ordering(graph, strategy="greedy")
        assert result.natural_peak == 4
        assert result.peak_height <= 3
        assert result.improved

    def test_anneal_never_worse_than_greedy_start(self):
        graph = waxman_graph(14, seed=9)
        greedy = optimize_emission_ordering(graph, strategy="greedy")
        anneal = optimize_emission_ordering(
            graph, strategy="anneal", seed=3, iterations=120
        )
        assert anneal.peak_height <= greedy.peak_height

    def test_natural_strategy_returns_vertex_order(self):
        graph = linear_cluster(6)
        result = optimize_emission_ordering(graph, strategy="natural")
        assert list(result.ordering) == graph.vertices()
        assert result.peak_height == result.natural_peak == 1

    def test_empty_graph(self):
        result = optimize_emission_ordering(GraphState(), strategy="anneal")
        assert result.ordering == ()
        assert result.peak_height == 0

    def test_unknown_strategy_raises(self):
        with pytest.raises(ValueError):
            optimize_emission_ordering(linear_cluster(3), strategy="magic")

    def test_checkpoint_free_engine_rejected_for_search(self):
        from repro.graphs.incremental import CutRankEngine

        graph = linear_cluster(5)
        bare = CutRankEngine(graph, checkpoint=False)
        with pytest.raises(ValueError, match="checkpoint"):
            optimize_emission_ordering(graph, strategy="greedy", engine=bare)
        # The natural strategy never rolls back, so it stays usable.
        result = optimize_emission_ordering(graph, strategy="natural", engine=bare)
        assert result.peak_height == 1

    def test_deterministic_for_fixed_seed(self):
        graph = waxman_graph(12, seed=4)
        first = optimize_emission_ordering(
            graph, strategy="anneal", seed=11, iterations=60
        )
        second = optimize_emission_ordering(
            graph, strategy="anneal", seed=11, iterations=60
        )
        assert first.ordering == second.ordering
        assert first.peak_height == second.peak_height


class TestCompilerIntegration:
    @pytest.mark.parametrize("strategy", ["greedy", "anneal"])
    def test_compiled_circuit_still_verifies(self, strategy):
        graph = lattice_graph(3, 4)
        result = compile_graph(
            graph, verify=True, ordering_strategy=strategy, ordering_iterations=60
        )
        assert result.verified is True
        assert result.ordering_strategy == strategy
        assert result.ordering_peak is not None
        assert result.minimum_emitters <= minimum_emitters(graph)
        summary = result.summary()
        assert summary["ordering_strategy"] == strategy
        assert summary["ordering_peak"] == result.ordering_peak

    def test_ordering_lowers_the_emitter_bound_on_the_lattice(self):
        graph = lattice_graph(3, 4)
        natural = compile_graph(graph, verify=True)
        optimised = compile_graph(graph, verify=True, ordering_strategy="greedy")
        assert natural.minimum_emitters == 4
        assert optimised.minimum_emitters == 3
        assert natural.ordering_peak is None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CompilerConfig(ordering_strategy="random")
        with pytest.raises(ValueError):
            CompilerConfig(ordering_iterations=0)
        config = CompilerConfig(ordering_strategy="anneal", ordering_iterations=10)
        assert config.ordering_strategy == "anneal"


class TestPipelineWireFormat:
    def test_batch_job_accepts_ordering(self):
        job = BatchJob(
            graph=GraphSpec(family="ghz", size=6), kind="compile", ordering="greedy"
        )
        assert job.as_dict()["ordering"] == "greedy"
        assert job.label.endswith("+greedy")
        rebuilt = BatchJob.from_dict(job.as_dict())
        assert rebuilt == job

    def test_batch_job_rejects_unknown_ordering(self):
        with pytest.raises(ValueError):
            BatchJob(graph=GraphSpec(family="ghz", size=6), ordering="sideways")
        with pytest.raises(ValueError):
            BatchJob.from_dict({"family": "ghz", "size": 6, "ordering": "sideways"})

    def test_from_dict_flat_payload_with_ordering(self):
        job = BatchJob.from_dict(
            {"family": "lattice", "size": 9, "kind": "compile", "ordering": "anneal"}
        )
        assert job.ordering == "anneal"

    def test_ordering_changes_the_content_hash(self):
        spec = GraphSpec(family="lattice", size=9)
        plain = BatchJob(graph=spec, kind="compile")
        ordered = BatchJob(graph=spec, kind="compile", ordering="greedy")
        assert plain.content_hash != ordered.content_hash

    def test_run_job_with_ordering_verifies(self):
        job = BatchJob(
            graph=GraphSpec(family="lattice", size=12, seed=2),
            kind="compile",
            ordering="anneal",
            verify=True,
            config_overrides=(("ordering_iterations", 40),),
        )
        record = run_job(job)
        assert record["ours"]["ordering_strategy"] == "anneal"
        assert "ordering_peak" in record["ours"]

    def test_sweep_jobs_threads_ordering(self):
        jobs = sweep_jobs("lattice", [8, 10], kind="compile", ordering="greedy")
        assert all(job.ordering == "greedy" for job in jobs)


class TestCLI:
    def test_compile_with_ordering(self, capsys):
        code = main(
            [
                "compile",
                "--family",
                "lattice",
                "--size",
                "9",
                "--ordering",
                "greedy",
                "--verify",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "ordering_strategy: greedy" in out

    def test_batch_with_ordering(self, capsys):
        code = main(
            [
                "batch",
                "--families",
                "ghz",
                "--sizes",
                "6",
                "--kind",
                "compile",
                "--ordering",
                "greedy",
            ]
        )
        assert code == EXIT_OK
        assert "+greedy" in capsys.readouterr().out

    def test_bench_writes_trajectory_file(self, tmp_path, capsys):
        target = tmp_path / "BENCH_emitters.json"
        code = main(
            [
                "bench",
                "--sizes",
                "16",
                "24",
                "--repeats",
                "1",
                "--compile-sizes",
                "12",
                "24",
                "--cache-sizes",
                "16",
                "32",
                "--portfolio-sizes",
                "12",
                "--portfolio-deadlines-ms",
                "50",
                "500",
                "--stream-sizes",
                "64",
                "256",
                "--output",
                str(target),
            ]
        )
        assert code == EXIT_OK
        record = json.loads(target.read_text())
        assert record["benchmark"] == "emitters"
        assert record["sizes"] == [16, 24]
        assert record["backend"] in ("packed", "dense")
        assert "git_rev" in record
        for row in record["results"]:
            assert row["speedup"] > 0
            assert row["greedy_peak"] <= row["natural_peak"]
        stream_rows = record["stream_results"]
        assert stream_rows and all(r["verified_against_oracle"] for r in stream_rows)
        assert set(record["peak_memory_bytes"]) == {
            "heights", "compile", "cache", "portfolio", "stream"
        }
        assert "wrote" in capsys.readouterr().out


class TestServiceWireFormat:
    def test_http_compile_with_ordering(self, tmp_path):
        from repro.service.client import ServiceClient
        from repro.service.server import start_server

        server, _ = start_server(
            cache_dir=str(tmp_path / "cache"), batch_window_seconds=0.01
        )
        try:
            host, port = server.server_address[:2]
            client = ServiceClient(f"http://{host}:{port}", timeout=120.0)
            client.wait_until_ready()
            body = client.compile_payload(
                {
                    "family": "lattice",
                    "size": 12,
                    "seed": 2,
                    "kind": "compile",
                    "ordering": "anneal",
                    "verify": True,
                    "config_overrides": {"ordering_iterations": 40},
                }
            )
            assert body["ok"] is True
            assert body["result"]["ours"]["ordering_strategy"] == "anneal"
            from repro.service.client import ServiceError

            with pytest.raises(ServiceError):
                client.compile_payload(
                    {"family": "lattice", "size": 8, "ordering": "bogus"}
                )
        finally:
            server.shutdown()
            server.server_close()
