"""Tests for the graph partitioner (LC + bounded blocks, MIP model)."""

from __future__ import annotations

import pytest

from repro.core.config import CompilerConfig
from repro.core.partition import GraphPartitioner, build_partition_program
from repro.graphs.generators import (
    complete_graph,
    lattice_graph,
    linear_cluster,
    waxman_graph,
)
from repro.graphs.graph_state import GraphState
from repro.graphs.local_complementation import apply_lc_sequence
from repro.solvers.mip import solve_binary_program
from repro.solvers.partition_heuristics import partition_blocks_valid


def config(**overrides) -> CompilerConfig:
    base = CompilerConfig(max_order_candidates=24, exhaustive_order_threshold=4)
    return base.with_overrides(**overrides) if overrides else base


class TestPartitionResult:
    def test_blocks_partition_the_vertex_set(self):
        graph = waxman_graph(18, seed=3)
        result = GraphPartitioner(config()).partition(graph)
        assert partition_blocks_valid(
            result.transformed_graph, result.blocks, max_block_size=7
        )

    def test_small_graph_is_a_single_block(self):
        graph = linear_cluster(5)
        result = GraphPartitioner(config()).partition(graph)
        assert result.num_blocks == 1
        assert result.num_stem_edges == 0
        assert result.method == "trivial"

    def test_stem_edges_match_block_assignment(self):
        graph = lattice_graph(4, 4)
        result = GraphPartitioner(config()).partition(graph)
        block_of = result.block_of()
        for u, v in result.stem_edges:
            assert block_of[u] != block_of[v]
        internal = [
            (u, v)
            for u, v in result.transformed_graph.edges()
            if block_of[u] == block_of[v]
        ]
        assert len(internal) + result.num_stem_edges == result.transformed_graph.num_edges

    def test_lc_operations_reproduce_the_transformed_graph(self):
        graph = complete_graph(6)
        result = GraphPartitioner(config(max_subgraph_size=3)).partition(graph)
        replayed, _ = apply_lc_sequence(
            result.original_graph, [op.vertex for op in result.lc_operations]
        )
        assert replayed == result.transformed_graph

    def test_lc_budget_zero_means_no_lc(self):
        graph = complete_graph(6)
        result = GraphPartitioner(config(lc_budget=0, max_subgraph_size=3)).partition(graph)
        assert result.lc_operations == []
        assert result.transformed_graph == graph

    def test_lc_never_increases_the_cut(self):
        for seed in range(5):
            graph = waxman_graph(16, seed=seed)
            no_lc = GraphPartitioner(config(lc_budget=0)).partition(graph)
            with_lc = GraphPartitioner(config(lc_budget=15)).partition(graph)
            assert with_lc.num_stem_edges <= no_lc.num_stem_edges

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            GraphPartitioner(config()).partition(GraphState())

    def test_exact_method_on_a_small_graph(self):
        graph = lattice_graph(2, 4)
        result = GraphPartitioner(
            config(max_subgraph_size=4, lc_budget=0)
        ).partition(graph)
        assert result.method == "exact"
        assert partition_blocks_valid(result.transformed_graph, result.blocks, 4)
        # The optimal bisection of a 2x4 grid cuts exactly 2 edges.
        assert result.num_stem_edges == 2


class TestPartitionProgram:
    def test_model_counts_stem_edges(self):
        graph = linear_cluster(4)
        program, y_names, _ = build_partition_program(graph, max_block_size=2, num_blocks=2)
        solution = solve_binary_program(program)
        assert solution.is_optimal
        # The path 0-1-2-3 split into two halves cuts exactly one edge.
        assert solution.objective == pytest.approx(1.0)

    def test_model_respects_capacity(self):
        graph = linear_cluster(4)
        program, y_names, _ = build_partition_program(graph, max_block_size=2, num_blocks=2)
        solution = solve_binary_program(program)
        for block in range(2):
            assigned = sum(
                solution.assignment[y_names[(v, block)]] for v in graph.vertices()
            )
            assert assigned <= 2

    def test_model_parameter_validation(self):
        graph = linear_cluster(3)
        with pytest.raises(ValueError):
            build_partition_program(graph, max_block_size=0, num_blocks=1)
        with pytest.raises(ValueError):
            build_partition_program(graph, max_block_size=2, num_blocks=0)
