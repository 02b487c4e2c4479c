"""End-to-end tests for the EmitterCompiler (the paper's framework)."""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest

from repro.core.compiler import EmitterCompiler
from repro.core.config import CompilerConfig
from repro.graphs.generators import (
    complete_graph,
    erdos_renyi_graph,
    lattice_graph,
    linear_cluster,
    random_tree,
    repeater_graph_state,
    ring_graph,
    star_graph,
    waxman_graph,
)
from repro.graphs.graph_state import GraphState
from repro.hardware.models import nv_center


def fast(**overrides) -> CompilerConfig:
    config = CompilerConfig(
        max_order_candidates=24, exhaustive_order_threshold=4, verify=True
    )
    return config.with_overrides(**overrides) if overrides else config


class TestCorrectness:
    @pytest.mark.parametrize(
        "graph_factory",
        [
            lambda: linear_cluster(8),
            lambda: star_graph(7),
            lambda: ring_graph(8),
            lambda: lattice_graph(3, 4),
            lambda: random_tree(14, seed=2),
            lambda: waxman_graph(12, seed=5),
            lambda: repeater_graph_state(4),
            lambda: complete_graph(6),
        ],
        ids=["linear", "star", "ring", "lattice", "tree", "waxman", "rgs", "complete"],
    )
    def test_compiled_circuits_generate_the_target(self, graph_factory):
        graph = graph_factory()
        result = EmitterCompiler(fast()).compile(graph)
        assert result.verified is True

    def test_lc_corrections_restore_the_original_target(self):
        # The complete graph triggers the LC stage (it is LC-equivalent to a
        # star with far fewer edges); verification is against the *original*.
        graph = complete_graph(7)
        result = EmitterCompiler(fast(max_subgraph_size=4)).compile(graph)
        assert result.verified is True
        assert len(result.partition.lc_operations) >= 1

    def test_verification_failure_raises(self, monkeypatch):
        from repro.core import compiler as compiler_module

        monkeypatch.setattr(
            compiler_module, "verify_circuit_generates", lambda *a, **k: False
        )
        with pytest.raises(RuntimeError, match="verification"):
            EmitterCompiler(fast()).compile(linear_cluster(4))

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            EmitterCompiler(fast()).compile(GraphState())


class TestResultContents:
    @pytest.fixture(scope="class")
    def result(self):
        return EmitterCompiler(fast(verify=False)).compile(lattice_graph(3, 4))

    def test_summary_keys(self, result):
        summary = result.summary()
        for key in (
            "num_emitter_emitter_cnots",
            "duration",
            "num_stem_edges",
            "num_blocks",
            "minimum_emitters",
            "emitter_limit",
            "compile_time_seconds",
        ):
            assert key in summary

    def test_metrics_are_consistent_with_the_circuit(self, result):
        assert result.num_emitter_emitter_cnots == result.circuit.num_emitter_emitter_gates()
        assert result.metrics.num_emissions == result.circuit.num_photons
        assert result.duration == pytest.approx(result.schedule.makespan)

    def test_partition_and_subgraph_results_align(self, result):
        assert len(result.subgraph_results) == result.partition.num_blocks
        assert result.schedule_plan is not None

    def test_stage_seconds_tile_the_compile(self, result):
        assert list(result.stage_seconds) == [
            "partition_lc",
            "emitter_bound",
            "leaf_search",
            "recombination_plan",
            "global_reduction",
            "lc_correction",
            "schedule_metrics",
            "verify",
        ]
        assert all(seconds >= 0 for seconds in result.stage_seconds.values())
        total = sum(result.stage_seconds.values())
        assert 0.95 * result.compile_time_seconds <= total
        assert total <= result.compile_time_seconds * (1 + 1e-9)

    def test_stage_seconds_stay_out_of_the_summary(self, result):
        # summary() feeds the result cache's content hashes, so its keys are
        # pinned: a timing field there would change every hash.
        assert set(result.summary()) == {
            *result.metrics.as_dict(),
            "num_stem_edges",
            "num_blocks",
            "num_lc_operations",
            "minimum_emitters",
            "emitter_limit",
            "compile_time_seconds",
            "ordering_strategy",
        }

    def test_emitter_limit_derivation(self, result):
        assert result.emitter_limit >= result.minimum_emitters
        assert result.compile_time_seconds > 0

    def test_single_block_graph_has_no_schedule_plan(self):
        result = EmitterCompiler(fast(verify=False)).compile(linear_cluster(5))
        assert result.schedule_plan is None
        assert result.partition.num_blocks == 1


class TestConfiguration:
    def test_explicit_emitter_limit_is_honoured(self):
        result = EmitterCompiler(fast(emitter_limit=3, verify=False)).compile(
            lattice_graph(3, 4)
        )
        assert result.emitter_limit == 3

    def test_larger_emitter_factor_never_slows_the_circuit(self):
        graph = lattice_graph(4, 4)
        tight = EmitterCompiler(fast(emitter_limit_factor=1.0, verify=False)).compile(graph)
        loose = EmitterCompiler(fast(emitter_limit_factor=2.0, verify=False)).compile(graph)
        assert loose.duration <= tight.duration * 1.25 + 1e-9

    def test_alternative_hardware_model(self):
        result = EmitterCompiler(fast(hardware=nv_center(), verify=False)).compile(
            linear_cluster(6)
        )
        assert result.duration > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CompilerConfig(max_subgraph_size=0)
        with pytest.raises(ValueError):
            CompilerConfig(lc_budget=-1)
        with pytest.raises(ValueError):
            CompilerConfig(emitter_limit_factor=0.5)
        with pytest.raises(ValueError):
            CompilerConfig(emitter_limit=0)
        with pytest.raises(ValueError):
            CompilerConfig(gf2_backend="arena")

    def test_with_overrides_returns_new_config(self):
        config = CompilerConfig()
        other = config.with_overrides(lc_budget=3)
        assert other.lc_budget == 3
        assert config.lc_budget == 15

    def test_configuration_doc_lists_exactly_the_fields(self):
        # The first table under "## Fields" in docs/configuration.md is the
        # CompilerConfig reference; it must neither miss nor keep a field.
        doc = Path(__file__).resolve().parents[1] / "docs" / "configuration.md"
        section = doc.read_text(encoding="utf-8").split("\n## Fields\n", 1)[1]
        rows = []
        for line in section.split("\n|---", 1)[1].splitlines()[1:]:
            if not line.startswith("|"):
                break
            rows.append(re.match(r"\| `(\w+)` \|", line).group(1))
        assert sorted(rows) == sorted(f.name for f in dataclasses.fields(CompilerConfig))


class TestDeterminism:
    def test_recompiling_with_one_compiler_repeats_the_circuit(self):
        """Leaves above the canonical-form size take the direct search, whose
        candidate orders are sampled; the sampler restarts from the seed at
        every compile, so a reused compiler does not depend on its history."""
        graph = erdos_renyi_graph(40, 0.12, seed=3)
        config = CompilerConfig(max_subgraph_size=16, subgraph_cache=False)
        compiler = EmitterCompiler(config)
        first = compiler.compile(graph)
        second = compiler.compile(graph)
        fresh = EmitterCompiler(config).compile(graph)
        assert second.circuit.gates == first.circuit.gates
        assert fresh.circuit.gates == first.circuit.gates
