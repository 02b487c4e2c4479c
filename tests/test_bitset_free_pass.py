"""Differential test of the touched-set free pass of the bitset states.

:class:`~repro.core.packed_reduction.PackedReductionState` and
:class:`~repro.core.streaming.StreamingReductionState` free isolated
emitters by checking only the emitters touched since the last pass, not the
whole active pool.  This file drives both states and the dense
:class:`~repro.core.reduction.ReductionState` oracle photon by photon over
large graphs (so the active pool is large) under the strategies that stress
that bookkeeping:

* ``lazy_free`` — the driver skips the free pass after each photon, so the
  touched set accumulates across the whole reduction and is drained only by
  :meth:`finish`;
* ``prefer_disconnect_over_allocate=True`` — liberation frees emitters
  outside the free pass;
* a tight non-strict ``emitter_budget`` — drives the liberation path and
  over-budget allocation.

The streaming state admits the photons in a shuffled order, so its slots
differ from the photon indices the other two states use.  The three op
sequences must be equal, and after every eager free pass no active emitter
of a bitset state may have an empty row.

The snapshot/restore case checks the two whole-graph states the leaf-order
search walks with: restoring a snapshot must give back exactly the state a
fresh replay of the same prefix reaches, touched set included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.packed_reduction import PackedReductionState
from repro.core.reduction import ReductionOpType, ReductionState
from repro.core.strategies import GreedyReductionStrategy, reduce_and_free, reduce_photon
from repro.core.streaming import StreamingReductionState
from repro.graphs.graph_state import GraphState
from repro.pipeline.jobs import GraphSpec

#: Zoo and random families with their sizes; every graph has >= 150 vertices.
LARGE_GRAPHS = (
    ("regular", 151),
    ("smallworld", 151),
    ("erdos", 151),
    ("percolated", 160),
    ("ghz", 151),
    ("surface", 11),
    ("random", 160),
)


def make_strategy(kind: str, budget: int) -> GreedyReductionStrategy:
    if kind == "prefer_disconnect":
        return GreedyReductionStrategy(prefer_disconnect_over_allocate=True)
    if kind == "tight_budget":
        return GreedyReductionStrategy(emitter_budget=budget)
    return GreedyReductionStrategy()


def streaming_state(graph, strategy, seed: int | None = None) -> StreamingReductionState:
    """A window holding the whole graph, photons named by vertex index.

    With a ``seed`` the photons are admitted in a shuffled order, so a
    photon's slot differs from its index and only the state's slot-to-name
    translation makes the emitted operations match the oracle's.
    """
    index = {v: i for i, v in enumerate(graph.vertices())}
    state = StreamingReductionState(
        graph.num_vertices,
        emitter_budget=strategy.emitter_budget,
    )
    admission = list(range(graph.num_vertices))
    if seed is not None:
        np.random.default_rng(seed).shuffle(admission)
    for photon in admission:
        state.admit_photon(photon)
    for u, v in graph.edges():
        state.add_edge(index[u], index[v])
    return state


def drive(state, order, strategy, check_pool: bool, eager: bool = True):
    """Reduce ``order`` (photon indices), passing a streaming state its slots.

    ``eager=False`` skips the free pass after each photon (the ``lazy_free``
    case), leaving every freeing to :meth:`finish`.
    """
    slot_of = getattr(state, "_slot_of", None)
    for photon in order:
        reduce_photon(state, photon if slot_of is None else slot_of[photon], strategy)
        if eager:
            state.free_isolated_emitters()
            if check_pool:
                idle = [e for e in state.active_emitters if state.emitter_degree(e) == 0]
                assert not idle, f"active emitters with empty rows after a free pass: {idle}"
    state.finish()
    return state


@given(
    graph_choice=st.sampled_from(LARGE_GRAPHS),
    kind=st.sampled_from(("lazy_free", "prefer_disconnect", "tight_budget")),
    budget=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=30, deadline=None)
def test_bitset_states_match_oracle_on_large_graphs(graph_choice, kind, budget, seed):
    family, size = graph_choice
    graph = GraphSpec(family=family, size=size, seed=seed).build()
    assert graph.num_vertices >= 150
    strategy = make_strategy(kind, budget)
    order = list(range(graph.num_vertices))
    np.random.default_rng(seed).shuffle(order)

    eager = kind != "lazy_free"
    kwargs = dict(emitter_budget=strategy.emitter_budget)
    dense = drive(ReductionState(graph, **kwargs), order, strategy, False, eager)
    packed = drive(PackedReductionState(graph, **kwargs), order, strategy, True, eager)
    streamed_state = streaming_state(graph, strategy, seed=seed + 1)
    assert any(streamed_state._slot_of[i] != i for i in range(graph.num_vertices))
    streamed = drive(streamed_state, order, strategy, True, eager)

    assert packed.operations == dense.operations
    assert streamed.operations == dense.operations
    for state in (packed, streamed):
        assert state.num_emitters_allocated == dense.num_emitters_allocated
        assert state.emitters_over_budget == dense.emitters_over_budget
        assert not state.active_emitters


def test_lazy_free_pass_sees_every_emitter_touched_since_the_start():
    """Without eager passes the touched set spans the whole reduction, so the
    single pass in ``finish`` still frees every emitter the oracle frees."""
    graph = GraphSpec(family="regular", size=151, seed=7).build()
    strategy = make_strategy("lazy_free", 0)
    order = list(reversed(range(graph.num_vertices)))
    dense = drive(ReductionState(graph), order, strategy, check_pool=False, eager=False)
    packed = drive(PackedReductionState(graph), order, strategy, check_pool=False, eager=False)
    frees = [op for op in dense.operations if op.op_type is ReductionOpType.FREE_EMITTER]
    assert len(frees) == dense.num_emitters_allocated > 100
    assert packed.operations == dense.operations


#: Scripted op sequences, each ending in a write that empties an emitter's
#: row after an earlier free pass already drained the touched set; the next
#: pass must free exactly what the oracle's full scan frees.  ``"free"``
#: steps run a free pass; other steps are ``(method, *args)``.
SCRIPTS = {
    "acquire": (1, [], ["free", ("apply_swap", 0), "free"]),
    "absorb_leaf": (
        2, [(0, 1)], [("apply_swap", 0), "free", ("apply_absorb_leaf", 0, 1), "free"]
    ),
    "absorb_dangling": (
        2, [(0, 1)], [("apply_swap", 0), "free", ("apply_absorb_dangling", 0, 1), "free"]
    ),
    "disconnect": (
        2,
        [(0, 1)],
        [("apply_swap", 0), ("apply_swap", 1), "free", ("apply_disconnect", 0, 1), "free"],
    ),
}


@pytest.mark.parametrize("write", sorted(SCRIPTS))
def test_each_recorded_write_is_seen_by_the_next_pass(write):
    num_vertices, edges, steps = SCRIPTS[write]
    graph = GraphState(vertices=range(num_vertices), edges=edges)

    def replay(state):
        freed = []
        for step in steps:
            if step == "free":
                freed.append(state.free_isolated_emitters())
            else:
                getattr(state, step[0])(*step[1:])
        return freed, state.operations

    strategy = GreedyReductionStrategy()
    expected = replay(ReductionState(graph))
    assert expected[0][-1], "the script must end in a pass that frees something"
    assert replay(PackedReductionState(graph)) == expected
    assert replay(streaming_state(graph, strategy)) == expected


#: Smaller graphs for the snapshot/restore case, which also runs the oracle.
SNAPSHOT_GRAPHS = (
    ("regular", 31),
    ("smallworld", 31),
    ("erdos", 31),
    ("percolated", 36),
    ("ghz", 31),
    ("surface", 5),
    ("random", 32),
)


def state_view(state):
    """Everything a snapshot must capture, in comparable form."""
    if isinstance(state, PackedReductionState):
        graph = (list(state._rows), state._alive, sorted(state._touched))
    else:
        graph = (
            sorted(state.graph.vertices()),
            sorted(tuple(sorted(edge)) for edge in state.graph.edges()),
        )
    return (
        list(state.operations),
        graph,
        sorted(state.free_emitters),
        sorted(state.active_emitters),
        state.num_emitters_allocated,
        state.emitters_over_budget,
    )


@pytest.mark.parametrize("cls", [ReductionState, PackedReductionState])
@given(
    graph_choice=st.sampled_from(SNAPSHOT_GRAPHS),
    kind=st.sampled_from(("lazy_free", "prefer_disconnect", "tight_budget")),
    budget=st.integers(1, 4),
    seed=st.integers(0, 10_000),
    cut=st.floats(0.0, 1.0),
)
@settings(max_examples=25, deadline=None)
def test_snapshot_restore_matches_fresh_replay(cls, graph_choice, kind, budget, seed, cut):
    family, size = graph_choice
    graph = GraphSpec(family=family, size=size, seed=seed).build()
    strategy = make_strategy(kind, budget)
    rng = np.random.default_rng(seed)
    order = list(graph.vertices())
    rng.shuffle(order)
    split = int(cut * len(order))
    prefix, suffix = order[:split], order[split:]
    detour = list(suffix)
    rng.shuffle(detour)
    kwargs = dict(emitter_budget=strategy.emitter_budget)

    def replay(state, vertices):
        for vertex in vertices:
            photon = state.photon_of_vertex[vertex]
            if kind == "lazy_free":
                reduce_photon(state, photon, strategy)
            else:
                reduce_and_free(state, photon, strategy)
        return state

    at_prefix = state_view(replay(cls(graph, **kwargs), prefix))
    state = replay(cls(graph, **kwargs), prefix)
    snapshot = state.snapshot()
    replay(state, detour).finish()
    state.restore(snapshot)
    assert state_view(state) == at_prefix
    replay(state, suffix).finish()
    fresh = replay(cls(graph, **kwargs), order)
    # The walk's bound is exact once every photon is gone: finish disconnects
    # exactly the emitter-emitter edges left.
    disconnects = [op for op in fresh.operations if op.op_type is ReductionOpType.DISCONNECT]
    bound = len(disconnects) + fresh.emitter_edge_count()
    fresh.finish()
    assert bound == sum(op.op_type is ReductionOpType.DISCONNECT for op in fresh.operations)
    assert state_view(state) == state_view(fresh)
    state.restore(snapshot)
    assert state_view(state) == at_prefix
