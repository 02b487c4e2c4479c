"""Differential tests of the leaf-order search's shared-prefix walk.

:meth:`SubgraphCompiler._search` walks the trie of candidate processing
orders with one reduction state and cuts subtrees by an emitter-emitter gate
bound.  ``flat_search`` below is the loop it replaced: reduce every
candidate separately with :func:`greedy_reduce` and keep the first order
with the smallest score key.  The walk must return the same order, the same
operations, the same key and the same ``orders_evaluated`` on both
reduction backends, and answer ``search_max < budget`` the same way, because
:meth:`SubgraphCompiler.compile_flexible` reuses a result for larger budgets
on that answer.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.compile_cache import SubgraphCompileCache, reset_process_cache
from repro.core.compiler import compile_graph
from repro.core.config import CompilerConfig
from repro.core.plan_scoring import score_sequence
from repro.core.strategies import GreedyReductionStrategy, greedy_reduce
from repro.core.subgraph_compiler import (
    LeafSearchStats,
    SubgraphCompiler,
    _OrderTrieWalk,
    candidate_processing_orders,
)
from repro.graphs.entanglement import minimum_emitters
from repro.graphs.graph_state import GraphState
from repro.pipeline.jobs import GraphSpec
from repro.utils.backend import use_backend
from repro.utils.misc import make_rng


def candidate_orders(config, graph, seeded_order, rng):
    """The candidate list ``SubgraphCompiler._search`` builds."""
    orders = candidate_processing_orders(
        graph,
        max_candidates=config.max_order_candidates,
        exhaustive_threshold=config.exhaustive_order_threshold,
        rng=rng,
    )
    if seeded_order is not None:
        candidate = list(seeded_order)
        if candidate in orders:
            orders.remove(candidate)
        orders.insert(0, candidate)
    return orders


def flat_search(compiler, graph, emitter_budget, seeded_order, rng, twin=True):
    """The flat loop the walk replaced: one fresh reduction per candidate."""
    config = compiler.config
    strategy = GreedyReductionStrategy(
        emitter_budget=emitter_budget, enable_twin_rule=twin
    )
    orders = candidate_orders(config, graph, seeded_order, rng)
    best = None
    search_max_emitters = 0
    for order in orders:
        sequence = greedy_reduce(graph, processing_order=order, strategy=strategy)
        search_max_emitters = max(search_max_emitters, sequence.num_emitters)
        key = score_sequence(
            sequence,
            durations=config.hardware.durations,
            cnot_cutoff=best[0][0] if best is not None else None,
        )
        if key is not None and (best is None or key < best[0]):
            best = (key, list(order), sequence)
    _, best_order, best_sequence = best
    return best_order, best_sequence, len(orders), search_max_emitters


@st.composite
def small_graphs(draw):
    """Random graphs of 2-8 vertices: both sides of the exhaustive threshold."""
    n = draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return GraphState(vertices=range(n), edges=[p for p, keep in zip(pairs, present) if keep])


@given(
    graph=small_graphs(),
    slack=st.integers(0, 2),
    twin=st.booleans(),
    seeded=st.booleans(),
    backend=st.sampled_from(("dense", "packed")),
    seed=st.integers(0, 1000),
)
@settings(max_examples=80, deadline=None)
# A candidate the bound would cut is the only one that reaches budget 4 here:
# cutting before any candidate reached the budget would answer
# ``search_max < budget`` wrongly.
@example(
    graph=GraphState(vertices=range(6), edges=[(0, 3), (0, 4), (2, 4), (2, 5)]),
    slack=2, twin=True, seeded=False, backend="packed", seed=0,
)
@example(
    graph=GraphState(vertices=range(6), edges=[(0, 3), (0, 4), (2, 4), (2, 5)]),
    slack=2, twin=False, seeded=False, backend="dense", seed=0,
)
def test_walk_matches_flat_search(graph, slack, twin, seeded, backend, seed):
    config = CompilerConfig(seed=seed, subgraph_cache=False)
    compiler = SubgraphCompiler(config)
    budget = minimum_emitters(graph) + slack
    seeded_order = None
    if seeded:
        seeded_order = list(graph.vertices())
        make_rng(seed + 1).shuffle(seeded_order)
    stats = LeafSearchStats()
    with use_backend(backend):
        if twin:
            # The compiler's own search, which always uses the twin rule.
            order, sequence, evaluated, search_max = compiler._search(
                graph, budget, seeded_order, make_rng(seed), stats
            )
        else:
            orders = candidate_orders(config, graph, seeded_order, make_rng(seed))
            strategy = GreedyReductionStrategy(
                emitter_budget=budget, enable_twin_rule=False
            )
            walk = _OrderTrieWalk(graph, strategy, config.hardware.durations, stats)
            index, sequence, search_max = walk.run(orders)
            order, evaluated = list(orders[index]), len(orders)
        ref_order, ref_sequence, ref_evaluated, ref_max = flat_search(
            compiler, graph, budget, seeded_order, make_rng(seed), twin=twin
        )
    durations = config.hardware.durations
    assert order == ref_order
    assert sequence.operations == ref_sequence.operations
    assert score_sequence(sequence, durations) == score_sequence(ref_sequence, durations)
    assert evaluated == ref_evaluated
    assert (search_max < budget) == (ref_max < budget)
    assert search_max == min(ref_max, budget)
    assert stats.orders == evaluated
    assert stats.steps <= evaluated * graph.num_vertices
    assert 1 <= stats.orders_scored <= evaluated


def test_walk_shares_prefixes_and_prunes():
    """On a 7-vertex leaf the walk takes far fewer steps than the flat loop."""
    graph = GraphSpec(family="smallworld", size=7, seed=2).build()
    stats = LeafSearchStats()
    SubgraphCompiler(CompilerConfig(subgraph_cache=False)).compile_flexible(graph, stats=stats)
    # Three budgets of 120 candidates; the flat loop took 360 * 7 = 2520 steps.
    assert stats == LeafSearchStats(
        orders=360, steps=1197, orders_scored=26, subtrees_pruned=321
    )


ZOO = (
    ("regular", 13),
    ("smallworld", 14),
    ("erdos", 14),
    ("percolated", 16),
    ("ghz", 10),
    ("steane", 7),
    ("surface", 3),
)


def compile_with_flat_search(graph, monkeypatch):
    """``compile_graph`` with the flat loop in place of the walk, cache off."""

    def search(self, graph, emitter_budget, seeded_order, rng, stats=None):
        return flat_search(self, graph, emitter_budget, seeded_order, rng)

    with monkeypatch.context() as patch:
        patch.setattr(SubgraphCompiler, "_search", search)
        return compile_graph(graph, subgraph_cache=False)


def circuit_of(result):
    return [(gate.name, gate.qubits) for gate in result.circuit.gates]


@pytest.mark.parametrize("family,size", ZOO)
def test_zoo_circuits_identical_across_backends_and_cache(family, size, monkeypatch):
    graph = GraphSpec(family=family, size=size, seed=2).build()
    expected = compile_with_flat_search(graph, monkeypatch)
    for backend in ("dense", "packed"):
        for cache in (False, True):
            reset_process_cache()
            result = compile_graph(graph, gf2_backend=backend, subgraph_cache=cache)
            assert circuit_of(result) == circuit_of(expected), (backend, cache)
            assert result.summary() | {"compile_time_seconds": 0} == (
                expected.summary() | {"compile_time_seconds": 0}
            )
    reset_process_cache()


def test_leaf_search_stats_repeat_and_stay_out_of_summary():
    graph = GraphSpec(family="erdos", size=21, seed=4).build()
    first = compile_graph(graph, subgraph_cache=False)
    second = compile_graph(graph, subgraph_cache=False)
    assert first.leaf_search_stats == second.leaf_search_stats
    assert first.leaf_search_stats.steps > 0
    assert not any("leaf" in key or "steps" in key for key in first.summary())


def test_cache_hits_add_no_leaf_search_work():
    graph = GraphSpec(family="erdos", size=21, seed=4).build()
    # subgraph_cache=False keeps the leaf atlas out, so the first compile
    # searches; the explicit cache still memoizes it.
    config = CompilerConfig(subgraph_cache=False)
    cold = SubgraphCompiler(config, cache=SubgraphCompileCache())
    block = graph.induced_subgraph(graph.vertices()[:6])
    searched = LeafSearchStats()
    cold.compile_flexible(block, stats=searched)
    assert searched.orders > 0
    repeat = LeafSearchStats()
    cold.compile_flexible(block, stats=repeat)
    assert repeat == LeafSearchStats()
