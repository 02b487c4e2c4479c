"""Tests for the per-subgraph ordering search and flexible emitter constraint."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit.validation import verify_circuit_generates
from repro.core.config import CompilerConfig
from repro.core.strategies import greedy_reduce
from repro.core.subgraph_compiler import (
    SubgraphCompiler,
    candidate_processing_orders,
)
from repro.graphs.entanglement import minimum_emitters
from repro.graphs.generators import lattice_graph, linear_cluster, ring_graph, waxman_graph
from repro.graphs.graph_state import GraphState


def compiler(**overrides) -> SubgraphCompiler:
    config = CompilerConfig(max_order_candidates=24, exhaustive_order_threshold=4)
    if overrides:
        config = config.with_overrides(**overrides)
    return SubgraphCompiler(config)


class TestCandidateOrders:
    def test_single_vertex(self):
        graph = GraphState(vertices=[0])
        orders = candidate_processing_orders(graph, 10, 4, np.random.default_rng(0))
        assert orders == [[0]]

    def test_exhaustive_for_tiny_graphs(self):
        graph = linear_cluster(3)
        orders = candidate_processing_orders(graph, 10, 4, np.random.default_rng(0))
        assert len(orders) == 6  # 3! permutations

    def test_candidates_are_unique_permutations(self):
        graph = waxman_graph(8, seed=1)
        orders = candidate_processing_orders(graph, 20, 4, np.random.default_rng(0))
        assert len({tuple(o) for o in orders}) == len(orders)
        for order in orders:
            assert sorted(order, key=repr) == sorted(graph.vertices(), key=repr)

    def test_candidate_count_is_bounded(self):
        graph = waxman_graph(9, seed=2)
        orders = candidate_processing_orders(graph, 15, 4, np.random.default_rng(0))
        assert len(orders) <= 15


class TestCompile:
    def test_result_is_verified_and_complete(self):
        graph = ring_graph(6)
        result = compiler().compile(graph)
        assert verify_circuit_generates(
            result.circuit, graph, photon_of_vertex=result.sequence.photon_of_vertex
        )
        assert result.orders_evaluated >= 1
        assert result.num_photons == 6

    def test_search_is_no_worse_than_the_natural_order(self):
        graph = lattice_graph(2, 3)
        natural = greedy_reduce(graph)
        result = compiler().compile(graph)
        assert (
            result.num_emitter_emitter_cnots
            <= natural.num_emitter_emitter_gates
        )

    def test_empty_subgraph_rejected(self):
        with pytest.raises(ValueError):
            compiler().compile(GraphState())

    def test_priority_definition(self):
        graph = linear_cluster(4)
        result = compiler().compile(graph)
        assert result.priority == pytest.approx(result.num_photons / result.duration)

    def test_emission_order_reverses_processing_order(self):
        graph = linear_cluster(4)
        result = compiler().compile(graph)
        assert result.emission_order() == list(reversed(result.processing_order))

    def test_default_budget_is_the_minimum(self):
        graph = ring_graph(5)
        result = compiler().compile(graph)
        assert result.emitter_budget == minimum_emitters(graph)


class TestFlexibleConstraint:
    def test_budgets_cover_the_slack_range(self):
        graph = ring_graph(6)
        results = compiler().compile_flexible(graph)
        base = minimum_emitters(graph)
        assert set(results) == {base, base + 1, base + 2}

    def test_all_variants_verify(self):
        graph = waxman_graph(7, seed=3)
        for result in compiler().compile_flexible(graph).values():
            assert verify_circuit_generates(
                result.circuit,
                graph,
                photon_of_vertex=result.sequence.photon_of_vertex,
            )
