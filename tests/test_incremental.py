"""Tests for the incremental cut-rank engine (`repro.graphs.incremental`)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.entanglement import cut_rank, height_function
from repro.graphs.generators import (
    erdos_renyi_graph,
    lattice_graph,
    linear_cluster,
    waxman_graph,
)
from repro.graphs.graph_state import GraphState
from repro.graphs.incremental import CutRankEngine, incremental_height_function
from repro.pipeline.jobs import GraphSpec

#: The seven scenario-zoo families the engine must agree with the oracle on.
ZOO_FAMILIES = (
    "regular",
    "smallworld",
    "erdos",
    "percolated",
    "ghz",
    "steane",
    "surface",
)


def zoo_graph(family: str, size: int, seed: int) -> GraphState:
    """Build one zoo graph, honouring the per-family size constraints."""
    if family == "steane":
        size = 7
    elif family == "surface":
        size = 3  # code distance; 13 data/check vertices
    elif family == "regular":
        size = max(size, 4)
    return GraphSpec(family=family, size=size, seed=seed).build()


def dense_oracle_heights(graph: GraphState, ordering) -> list[int]:
    """One from-scratch dense rank per prefix — the bit-exact oracle."""
    heights = [0]
    for i in range(1, len(ordering) + 1):
        heights.append(cut_rank(graph, ordering[:i], backend="dense"))
    return heights


class TestEngineOracleEquivalence:
    @given(
        family=st.sampled_from(ZOO_FAMILIES),
        size=st.integers(4, 12),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_zoo_heights_match_dense_oracle(self, family, size, seed):
        graph = zoo_graph(family, size, seed)
        ordering = graph.vertices()
        np.random.default_rng(seed).shuffle(ordering)
        expected = dense_oracle_heights(graph, ordering)
        assert CutRankEngine(graph).heights(ordering) == expected
        assert incremental_height_function(graph, ordering) == expected
        assert height_function(graph, ordering, backend="packed") == expected

    @given(seed=st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_waxman_heights_match_dense_oracle(self, seed):
        graph = waxman_graph(9, seed=seed)
        ordering = graph.vertices()
        np.random.default_rng(seed).shuffle(ordering)
        assert CutRankEngine(graph).heights(ordering) == dense_oracle_heights(
            graph, ordering
        )

    def test_append_returns_running_heights(self):
        graph = lattice_graph(3, 3)
        engine = CutRankEngine(graph)
        heights = [0]
        for v in graph.vertices():
            heights.append(engine.append(v))
        assert heights == dense_oracle_heights(graph, graph.vertices())
        assert engine.heights_so_far == heights

    def test_packed_cut_rank_matches_dense(self):
        graph = waxman_graph(10, seed=5)
        for size in range(11):
            subset = graph.vertices()[:size]
            assert cut_rank(graph, subset, backend="packed") == cut_rank(
                graph, subset, backend="dense"
            )


class TestCheckpointRollback:
    @given(
        family=st.sampled_from(ZOO_FAMILIES),
        size=st.integers(5, 11),
        seed=st.integers(0, 5_000),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_suffix_mutation_reevaluates_correctly(self, family, size, seed, data):
        graph = zoo_graph(family, size, seed)
        n = graph.num_vertices
        ordering = graph.vertices()
        np.random.default_rng(seed).shuffle(ordering)
        engine = CutRankEngine(graph)
        engine.heights(ordering)

        i = data.draw(st.integers(0, n - 1), label="i")
        j = data.draw(st.integers(0, n - 1), label="j")
        mutated = list(ordering)
        mutated[i], mutated[j] = mutated[j], mutated[i]
        assert engine.heights(mutated) == dense_oracle_heights(graph, mutated)
        # Moving back must also be exact (rollback of the rollback).
        assert engine.heights(ordering) == dense_oracle_heights(graph, ordering)

    def test_truncate_restores_prefix_state(self):
        graph = lattice_graph(3, 4)
        ordering = graph.vertices()
        engine = CutRankEngine(graph)
        full = engine.heights(ordering)
        engine.truncate(5)
        assert engine.position == 5
        assert engine.prefix == ordering[:5]
        assert engine.heights_so_far == full[:6]
        # Re-appending the same suffix reproduces the full profile.
        for v in ordering[5:]:
            engine.append(v)
        assert engine.heights_so_far == full

    def test_truncate_then_divergent_suffix(self):
        graph = linear_cluster(8)
        ordering = graph.vertices()
        engine = CutRankEngine(graph)
        engine.heights(ordering)
        engine.truncate(3)
        new_order = ordering[:3] + list(reversed(ordering[3:]))
        for v in new_order[3:]:
            engine.append(v)
        assert engine.heights_so_far == dense_oracle_heights(graph, new_order)

    def test_multi_word_graph_matches_dense_oracle(self):
        """Rows wider than one 64-bit word, with a rollback past position 5."""
        graph = erdos_renyi_graph(70, seed=4)
        ordering = graph.vertices()
        engine = CutRankEngine(graph)
        assert engine.heights(ordering) == dense_oracle_heights(graph, ordering)
        engine.truncate(5)
        flipped = ordering[:5] + list(reversed(ordering[5:]))
        assert engine.heights(flipped) == dense_oracle_heights(graph, flipped)

    def test_append_validation(self):
        graph = linear_cluster(4)
        engine = CutRankEngine(graph)
        engine.append(0)
        with pytest.raises(ValueError):
            engine.append(0)
        with pytest.raises(KeyError):
            engine.append(99)

    def test_truncate_validation(self):
        graph = linear_cluster(4)
        engine = CutRankEngine(graph)
        engine.append(0)
        with pytest.raises(ValueError):
            engine.truncate(5)
        with pytest.raises(ValueError):
            engine.truncate(-1)

    def test_checkpoint_free_engine_only_resets(self):
        graph = linear_cluster(5)
        engine = CutRankEngine(graph, checkpoint=False)
        for v in graph.vertices():
            engine.append(v)
        engine.truncate(engine.position)  # no-op is fine
        with pytest.raises(ValueError):
            engine.truncate(2)
        engine.truncate(0)
        assert engine.position == 0
        assert engine.heights(graph.vertices()) == dense_oracle_heights(
            graph, graph.vertices()
        )

    def test_heights_rejects_non_permutations(self):
        graph = linear_cluster(4)
        engine = CutRankEngine(graph)
        with pytest.raises(ValueError):
            engine.heights([0, 1, 2])
        with pytest.raises(ValueError):
            engine.heights([0, 1, 2, 2])


class TestAdjacencyCacheInvalidation:
    def test_cut_rank_tracks_edge_mutations(self):
        graph = lattice_graph(3, 3)
        subset = graph.vertices()[:4]
        before = cut_rank(graph, subset, backend="packed")
        assert before == cut_rank(graph, subset, backend="dense")
        graph.toggle_edge(0, 8)
        assert cut_rank(graph, subset, backend="packed") == cut_rank(
            graph, subset, backend="dense"
        )
        graph.remove_edge(0, 1)
        assert cut_rank(graph, subset, backend="packed") == cut_rank(
            graph, subset, backend="dense"
        )
        graph.add_edge(0, 4)
        assert cut_rank(graph, subset, backend="packed") == cut_rank(
            graph, subset, backend="dense"
        )

    def test_cut_rank_tracks_local_complementation(self):
        graph = waxman_graph(9, seed=2)
        subset = graph.vertices()[:4]
        for vertex in (0, 3, 5):
            graph.local_complement(vertex)
            assert cut_rank(graph, subset, backend="packed") == cut_rank(
                graph, subset, backend="dense"
            )

    def test_cut_rank_tracks_vertex_mutations(self):
        graph = lattice_graph(2, 4)
        graph.remove_vertex(7)
        subset = [0, 1, 2]
        assert cut_rank(graph, subset, backend="packed") == cut_rank(
            graph, subset, backend="dense"
        )
        graph.add_vertex("new")
        graph.add_edge("new", 0)
        assert cut_rank(graph, ["new", 0], backend="packed") == cut_rank(
            graph, ["new", 0], backend="dense"
        )

    def test_packed_adjacency_cache_is_reused_until_mutation(self):
        graph = lattice_graph(3, 3)
        first = graph.packed_adjacency()
        assert graph.packed_adjacency() is first
        graph.toggle_edge(0, 8)
        second = graph.packed_adjacency()
        assert second is not first
        assert graph.packed_adjacency() is second

    def test_engine_snapshots_graph_at_construction(self):
        # An engine built before a mutation keeps answering for the old
        # graph; a new engine sees the new one.
        graph = linear_cluster(6)
        engine = CutRankEngine(graph)
        old = engine.heights(graph.vertices())
        graph.add_edge(0, 5)
        assert CutRankEngine(graph).heights(graph.vertices()) == (
            dense_oracle_heights(graph, graph.vertices())
        )
        assert engine.heights(graph.vertices()) == old
