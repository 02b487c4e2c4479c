"""Batch-compilation pipeline: jobs, caching, parallelism and the CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.evaluation.experiments import run_comparison, sweep_jobs
from repro.evaluation.figures import figure10_cnot, runtime_scaling
from repro.pipeline.cache import ResultCache
from repro.pipeline.jobs import BatchJob, GraphSpec, run_job
from repro.pipeline.runner import BatchRunner


class TestGraphSpec:
    def test_builds_benchmark_families(self):
        for family, size in (("lattice", 9), ("tree", 8), ("random", 8), ("linear", 6)):
            graph = GraphSpec(family=family, size=size, seed=3).build()
            assert graph.num_vertices >= 2

    def test_rejects_unknown_family_and_size(self):
        with pytest.raises(ValueError):
            GraphSpec(family="hypercube", size=8)
        with pytest.raises(ValueError):
            GraphSpec(family="lattice", size=0)

    def test_builds_every_zoo_family(self):
        for family, size in (
            ("regular", 10),
            ("smallworld", 10),
            ("erdos", 10),
            ("percolated", 10),
            ("ghz", 10),
            ("steane", 7),
            ("surface", 3),
        ):
            graph = GraphSpec(family=family, size=size, seed=5).build()
            assert graph.num_vertices >= 4
            assert graph.is_connected()

    def test_zoo_structural_constraints(self):
        with pytest.raises(ValueError):
            GraphSpec(family="steane", size=8)  # the code is fixed at 7
        with pytest.raises(ValueError):
            GraphSpec(family="surface", size=4)  # distance must be odd
        with pytest.raises(ValueError):
            GraphSpec(family="regular", size=3)  # too small for degree 3/4

    def test_zoo_families_compile_through_the_batch_runner(self):
        jobs = [
            BatchJob(graph=GraphSpec(family, size, seed=5), kind="compile")
            for family, size in (
                ("regular", 8),
                ("smallworld", 8),
                ("erdos", 8),
                ("percolated", 8),
                ("ghz", 8),
                ("steane", 7),
                ("surface", 3),
            )
        ]
        report = BatchRunner().run(jobs)
        assert report.num_errors == 0
        for outcome in report.outcomes:
            assert outcome.result["ours"]["num_emitters"] >= 1


class TestBatchJob:
    def test_content_hash_is_stable_and_sensitive(self):
        job = BatchJob(graph=GraphSpec("lattice", 9, 3))
        same = BatchJob(graph=GraphSpec("lattice", 9, 3))
        other = BatchJob(graph=GraphSpec("lattice", 9, 4))
        assert job.content_hash == same.content_hash
        assert job.content_hash != other.content_hash
        assert job.content_hash != job.with_overrides(kind="compile").content_hash

    def test_rejects_bad_kind_backend_hardware(self):
        spec = GraphSpec("lattice", 9, 3)
        with pytest.raises(ValueError):
            BatchJob(graph=spec, kind="profile")
        for backend in ("simd", "arena"):
            with pytest.raises(ValueError):
                BatchJob(graph=spec, backend=backend)
        with pytest.raises(ValueError):
            BatchJob(graph=spec, hardware="abacus")

    def test_from_dict_roundtrips_as_dict(self):
        job = BatchJob(
            graph=GraphSpec("surface", 3, seed=2),
            kind="compile",
            emitter_limit_factor=2.0,
            backend="dense",
            config_overrides=(("lc_budget", 0),),
        )
        rebuilt = BatchJob.from_dict(json.loads(json.dumps(job.as_dict())))
        assert rebuilt == job
        assert rebuilt.content_hash == job.content_hash

    def test_from_dict_accepts_flat_graph_keys(self):
        job = BatchJob.from_dict({"family": "lattice", "size": 9, "kind": "compile"})
        assert job.graph == GraphSpec("lattice", 9)
        assert job.kind == "compile"

    def test_from_dict_accepts_mapping_config_overrides(self):
        job = BatchJob.from_dict(
            {"family": "lattice", "size": 9, "config_overrides": {"lc_budget": 0}}
        )
        assert job.config_overrides == (("lc_budget", 0),)

    @pytest.mark.parametrize("name", ["use_twin_rule", "stream_chunk", "lc_budgett"])
    def test_unknown_config_override_name_is_rejected_at_construction(self, name):
        # Deleted CompilerConfig fields and typos fail when the job is built,
        # not as a TypeError inside the compile.
        with pytest.raises(ValueError, match="config_overrides"):
            BatchJob.from_dict(
                {"family": "lattice", "size": 9, "config_overrides": {name: 1}}
            )
        with pytest.raises(ValueError, match="config_overrides"):
            BatchJob(graph=GraphSpec("lattice", 9), config_overrides=((name, 1),))

    def test_from_dict_rejects_unknown_keys_and_missing_graph(self):
        with pytest.raises(ValueError):
            BatchJob.from_dict({"family": "lattice", "size": 9, "sizee": 2})
        with pytest.raises(ValueError):
            BatchJob.from_dict({"kind": "compile"})
        with pytest.raises(ValueError):
            BatchJob.from_dict({"graph": {"family": "lattice", "size": 9, "x": 1}})
        with pytest.raises(ValueError):
            BatchJob.from_dict("not-a-mapping")

    def test_job_description_is_json_serialisable(self):
        job = BatchJob(
            graph=GraphSpec("tree", 7, 2), config_overrides=(("lc_budget", 4),)
        )
        encoded = json.dumps(job.as_dict(), sort_keys=True)
        assert "lc_budget" in encoded


class TestRunJob:
    def test_comparison_matches_run_comparison(self):
        spec = GraphSpec("lattice", 9, 11)
        record = run_job(BatchJob(graph=spec))
        point = run_comparison(spec.build())
        assert record["ours"]["num_emitter_emitter_cnots"] == point.ours_cnots
        assert record["baseline"]["num_emitter_emitter_cnots"] == point.baseline_cnots
        assert record["num_qubits"] == point.num_qubits
        assert record["seconds_ours"] > 0

    def test_lc_stem_edges_record(self):
        record = run_job(
            BatchJob(
                graph=GraphSpec("waxman", 10, 11),
                kind="lc_stem_edges",
                config_overrides=(("lc_budget", 15),),
            )
        )
        assert record["stem_edge_reduction"] == (
            record["stem_edges_no_lc"] - record["stem_edges_with_lc"]
        )

    def test_backends_produce_identical_metrics(self):
        spec = GraphSpec("lattice", 9, 5)
        dense = run_job(BatchJob(graph=spec, backend="dense", verify=True))
        packed = run_job(BatchJob(graph=spec, backend="packed", verify=True))
        for key in ("num_emitter_emitter_cnots", "duration", "photon_loss_probability"):
            assert dense["ours"][key] == packed["ours"][key]
            assert dense["baseline"][key] == packed["baseline"][key]


class TestResultCache:
    def test_roundtrip_and_stats(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.get("deadbeef") is None
        cache.put("deadbeef", {"value": 3})
        assert cache.get("deadbeef") == {"value": 3}
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1

    def test_rejects_path_traversal_keys(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(ValueError):
            cache.get("../escape")

    def test_corrupt_entry_counts_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("key", {"value": 1})
        (tmp_path / "key.json").write_text("{not json")
        assert cache.get("key") is None


class TestBatchRunner:
    def _jobs(self, sizes=(8, 9, 10)):
        return sweep_jobs("lattice", sizes, seed=11)

    def test_serial_run_collects_all_results(self):
        report = BatchRunner().run(self._jobs())
        assert report.num_jobs == 3
        assert report.num_errors == 0
        assert report.num_cache_hits == 0
        assert all(record is not None for record in report.results)

    def test_second_run_hits_cache(self, tmp_path):
        runner = BatchRunner(cache_dir=tmp_path / "cache")
        jobs = self._jobs()
        first = runner.run(jobs)
        second = runner.run(jobs)
        assert first.num_cache_hits == 0
        assert second.num_cache_hits == len(jobs)
        assert second.summary()["compute_seconds"] == 0.0
        for fresh, cached in zip(first.results, second.results):
            assert fresh["ours"] == cached["ours"]

    def test_parallel_matches_serial(self, tmp_path):
        def metrics(record):
            # Wall-clock fields are nondeterministic by nature; everything
            # else must agree exactly between execution modes.
            return {
                key: value
                for key, value in record["ours"].items()
                if key != "compile_time_seconds"
            }

        jobs = self._jobs((8, 9, 10, 12))
        serial = BatchRunner(max_workers=1).run(jobs)
        parallel = BatchRunner(max_workers=3).run(jobs)
        assert parallel.num_errors == 0
        for left, right in zip(serial.results, parallel.results):
            assert metrics(left) == metrics(right)
            assert left["baseline"] == right["baseline"]

    def test_identical_jobs_in_one_batch_are_coalesced(self):
        job = BatchJob(graph=GraphSpec("linear", 7), kind="compile")
        report = BatchRunner().run([job, job, job])
        assert report.num_errors == 0
        # cache_hit stays reserved for the persistent cache (none here).
        assert [o.cache_hit for o in report.outcomes] == [False, False, False]
        assert [o.coalesced for o in report.outcomes] == [False, True, True]
        assert report.num_coalesced == 2
        assert report.outcomes[1].result == report.outcomes[0].result
        # Duplicates cost nothing: total compute equals the single run.
        assert report.summary()["compute_seconds"] == pytest.approx(
            report.outcomes[0].elapsed_seconds
        )

    def test_job_error_is_captured_not_raised(self):
        # A repeater spec needs >= 2 arms to mean anything; size 1 yields a
        # 2-vertex graph, so force a failure via an invalid config override.
        bad = BatchJob(
            graph=GraphSpec("lattice", 8, 1),
            config_overrides=(("max_subgraph_size", 0),),
        )
        good = BatchJob(graph=GraphSpec("lattice", 8, 1))
        report = BatchRunner().run([bad, good])
        assert report.num_errors == 1
        assert report.outcomes[0].error is not None
        assert report.outcomes[1].ok
        with pytest.raises(RuntimeError):
            report.raise_first_error()


class TestFigureSweepsThroughPipeline:
    def test_figure10_cnot_uses_cache(self, tmp_path):
        runner = BatchRunner(cache_dir=tmp_path / "cache")
        first = figure10_cnot("lattice", sizes=(9, 12), runner=runner)
        second = figure10_cnot("lattice", sizes=(9, 12), runner=runner)
        assert first.rows == second.rows
        assert runner.cache.hits >= 2

    def test_figure_matches_unpiped_results(self, tmp_path):
        piped = figure10_cnot("lattice", sizes=(9, 12))
        cached = figure10_cnot(
            "lattice", sizes=(9, 12), runner=BatchRunner(cache_dir=tmp_path)
        )
        assert piped.rows == cached.rows

    def test_runtime_scaling_rows(self):
        data = runtime_scaling(sizes=(6, 8))
        assert len(data.rows) == 2
        assert data.summary["max_ours_seconds"] > 0


class TestBatchCLI:
    def test_batch_subcommand_with_cache_and_json(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        json_path = tmp_path / "out.json"
        argv = [
            "batch",
            "--families", "lattice",
            "--sizes", "8", "9",
            "--cache-dir", str(cache_dir),
            "--json", str(json_path),
        ]
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert "cache hits: 0" in first
        assert cli_main(argv) == 0
        second = capsys.readouterr().out
        assert "cache hits: 2" in second
        payload = json.loads(json_path.read_text())
        assert payload["summary"]["num_jobs"] == 2
        assert all(job["cache_hit"] for job in payload["jobs"])

    def test_batch_propagates_job_errors_via_exit_code(self, capsys):
        # star graphs need >= 1 vertex; an unknown hardware name fails at
        # job-construction time, so use a failing compile instead: lattice of
        # size 2 is below the 2x2 minimum and raises inside the worker.
        argv = ["batch", "--families", "repeater", "--sizes", "1", "--kind", "duration"]
        exit_code = cli_main(argv)
        out = capsys.readouterr().out
        # Job errors surface as the batch-specific exit code (5), clean runs as 0.
        assert exit_code in (0, 5)
        assert "jobs: 1" in out
