"""The counted emitter-emitter gate bound against a recount.

The leaf-order search cuts a subtree when ``ee_gate_bound()`` — ``DISCONNECT``
ops so far plus emitter-emitter edges now — is above the incumbent's gate
count.  The bitset states keep that sum in two counters updated by the
rewrites, and carry them through ``snapshot()``/``restore()``; the dense
oracle recounts.  On every state, after every step and after every restore,
the bound must equal the number of ``DISCONNECT`` ops plus a fresh
``emitter_edge_count()``.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.packed_reduction import PackedReductionState
from repro.core.reduction import ReductionOpType, ReductionState
from repro.core.streaming import StreamingReductionState
from repro.core.strategies import GreedyReductionStrategy, reduce_and_free
from repro.pipeline.jobs import GraphSpec

ZOO_FAMILIES = ("regular", "smallworld", "erdos", "percolated", "ghz", "steane", "surface")

STRATEGIES = (
    GreedyReductionStrategy(),
    GreedyReductionStrategy(emitter_budget=1, prefer_disconnect_over_allocate=True),
    GreedyReductionStrategy(enable_twin_rule=False, allow_disconnect_absorb=False),
)


def zoo_graph(family: str, seed: int):
    size = {"steane": 7, "surface": 3}.get(family, 10)
    return GraphSpec(family=family, size=size, seed=seed).build()


def recount(state) -> int:
    disconnects = sum(
        1 for op in state.operations if op.op_type is ReductionOpType.DISCONNECT
    )
    return disconnects + state.emitter_edge_count()


def whole_graph_steps(cls, graph, order, strategy):
    """A whole-graph state and the photon of each step of ``order``."""
    state = cls(graph, emitter_budget=strategy.emitter_budget)
    return state, [state.photon_of_vertex[v] for v in order]


def streaming_steps(graph, order, strategy, rng):
    """A streaming state holding all of ``graph``, admitted in shuffled order.

    The shuffle makes window slots differ from vertex names.
    """
    state = StreamingReductionState(
        graph.num_vertices, emitter_budget=strategy.emitter_budget
    )
    admitted = list(graph.vertices())
    rng.shuffle(admitted)
    for vertex in admitted:
        state.admit_photon(vertex)
    for u, v in graph.edges():
        state.add_edge(u, v)
    return state, [state._slot_of[v] for v in order]


@given(
    family=st.sampled_from(ZOO_FAMILIES),
    seed=st.integers(0, 5_000),
    strategy=st.sampled_from(STRATEGIES),
)
@settings(max_examples=30, deadline=None)
def test_counted_bound_equals_recount_after_every_step(family, seed, strategy):
    graph = zoo_graph(family, seed)
    rng = random.Random(seed)
    order = list(graph.vertices())
    rng.shuffle(order)

    for cls in (ReductionState, PackedReductionState):
        state, photons = whole_graph_steps(cls, graph, order, strategy)
        snapshots = []
        for photon in photons:
            reduce_and_free(state, photon, strategy)
            assert state.ee_gate_bound() == recount(state)
            snapshots.append((state.snapshot(), state.ee_gate_bound()))
        gates = state.finish().num_emitter_emitter_gates
        assert state.ee_gate_bound() == recount(state) == gates
        # Rewind to every point of the reduction in shuffled order and replay
        # the rest from there, as the leaf search does between siblings.
        points = list(range(len(photons)))
        rng.shuffle(points)
        for point in points:
            snapshot, bound = snapshots[point]
            state.restore(snapshot)
            assert state.ee_gate_bound() == bound == recount(state)
            for photon in photons[point + 1:]:
                reduce_and_free(state, photon, strategy)
                assert state.ee_gate_bound() == recount(state)
            state.finish()
            assert state.ee_gate_bound() == recount(state) == gates

    # The streaming state takes the same steps on window slots (no restore).
    state, slots = streaming_steps(graph, order, strategy, rng)
    for slot in slots:
        reduce_and_free(state, slot, strategy)
        assert state.ee_gate_bound() == recount(state)
    state.finish()
    assert state.ee_gate_bound() == recount(state) == gates
