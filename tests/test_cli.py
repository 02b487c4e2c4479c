"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro import __version__
from repro.cli import (
    EXIT_BATCH,
    EXIT_COMPILE,
    EXIT_FIGURE,
    EXIT_LOADGEN,
    EXIT_OK,
    build_parser,
    main,
)


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out

    def test_serve_and_loadgen_are_registered_with_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "serve" in out and "loadgen" in out

        args = build_parser().parse_args(["serve", "--port", "0"])
        assert args.command == "serve"
        assert args.port == 0
        assert args.batch_window_ms == pytest.approx(20.0)

        args = build_parser().parse_args(
            ["loadgen", "--self-serve", "--requests", "5", "--min-cache-hit-rate", "0.9"]
        )
        assert args.self_serve is True
        assert args.min_cache_hit_rate == pytest.approx(0.9)

    def test_subgraph_cache_flags(self):
        args = build_parser().parse_args(
            ["serve", "--subgraph-cache-dir", ".sg-cache"]
        )
        assert args.subgraph_cache_dir == ".sg-cache"
        assert build_parser().parse_args(["serve"]).subgraph_cache_dir is None

        args = build_parser().parse_args(["bench", "--cache-sizes", "16", "32"])
        assert args.cache_sizes == [16, 32]
        assert build_parser().parse_args(["bench"]).cache_sizes is None
        assert build_parser().parse_args(["bench", "--cache-sizes"]).cache_sizes == []

    def test_compile_defaults(self):
        args = build_parser().parse_args(["compile"])
        assert args.family == "lattice"
        assert args.size == 20
        assert args.emitter_factor == pytest.approx(1.5)

    def test_compile_rejects_unknown_backend(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["compile", "--backend", "arena"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_figure_choices(self):
        args = build_parser().parse_args(["figure", "fig10a", "--sizes", "10", "12"])
        assert args.figure == "fig10a"
        assert args.sizes == [10, 12]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])


class TestExecution:
    def test_compile_command_prints_metrics(self, capsys):
        exit_code = main(
            ["compile", "--family", "tree", "--size", "8", "--seed", "3", "--baseline"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "framework result:" in captured
        assert "baseline result:" in captured
        assert "num_emitter_emitter_cnots" in captured

    def test_compile_command_with_circuit_listing(self, capsys):
        exit_code = main(
            ["compile", "--family", "lattice", "--size", "9", "--show-circuit"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "EMIT" in captured

    def test_compile_profile_prints_stages_and_leaf_search(self, capsys):
        exit_code = main(["compile", "--family", "lattice", "--size", "12", "--profile"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        stages = captured.split("stage seconds:\n", 1)[1].split("leaf search:\n", 1)[0]
        assert [line.split(":")[0].strip() for line in stages.splitlines()] == [
            "partition_lc", "emitter_bound", "leaf_search", "recombination_plan",
            "global_reduction", "lc_correction", "schedule_metrics", "verify",
        ]
        leaf = captured.split("leaf search:\n", 1)[1]
        for counter in ("orders", "steps", "orders_scored", "subtrees_pruned", "atlas_hits"):
            assert f"  {counter}: " in leaf
        assert "atlas hits " in captured
        plain = main(["compile", "--family", "lattice", "--size", "12"])
        assert plain == 0 and "stage seconds:" not in capsys.readouterr().out

    def test_figure_command(self, capsys):
        exit_code = main(["figure", "fig10b", "--sizes", "8", "10"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "fig10_cnot_tree" in captured
        assert "reduction" in captured

    def test_zoo_figure_command(self, capsys):
        exit_code = main(["figure", "zoo"])
        captured = capsys.readouterr().out
        assert exit_code == EXIT_OK
        assert "scenario_zoo" in captured
        for family in ("steane", "surface", "smallworld", "percolated"):
            assert family in captured

    def test_zoo_figure_rejects_multiple_sizes(self, capsys):
        exit_code = main(["figure", "zoo", "--sizes", "9", "12"])
        assert exit_code == EXIT_FIGURE
        assert "single size point" in capsys.readouterr().err


class TestExitCodes:
    def test_compile_failure_is_distinct(self, capsys):
        # Size 0 is rejected by the generator and surfaces as the compile code.
        exit_code = main(["compile", "--family", "lattice", "--size", "0"])
        assert exit_code == EXIT_COMPILE
        assert "repro compile:" in capsys.readouterr().err

    def test_figure_failure_is_distinct(self, capsys, monkeypatch):
        from repro.evaluation import figures

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic figure failure")

        monkeypatch.setattr(figures, "figure5_emitter_usage", boom)
        exit_code = main(["figure", "fig5"])
        assert exit_code == EXIT_FIGURE
        assert "synthetic figure failure" in capsys.readouterr().err

    def test_batch_usage_failure_is_distinct(self, capsys, monkeypatch):
        from repro.pipeline.runner import BatchRunner

        def boom(self, jobs):
            raise RuntimeError("synthetic batch failure")

        monkeypatch.setattr(BatchRunner, "run", boom)
        exit_code = main(["batch", "--families", "lattice", "--sizes", "8"])
        assert exit_code == EXIT_BATCH
        assert "synthetic batch failure" in capsys.readouterr().err

    def test_loadgen_requires_exactly_one_target(self, capsys):
        assert main(["loadgen"]) == EXIT_LOADGEN
        assert "exactly one of" in capsys.readouterr().err


class TestLoadgenSelfServe:
    def test_self_serve_round_trip_prints_percentiles(self, tmp_path, capsys):
        argv = [
            "loadgen",
            "--self-serve",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--families",
            "linear",
            "--sizes",
            "6",
            "--requests",
            "6",
            "--concurrency",
            "2",
        ]
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        # A second identical run must be served (almost) entirely from cache.
        assert main(argv + ["--min-cache-hit-rate", "0.9"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "latency p50" in out and "latency p95" in out
        assert "100.0%" in out
