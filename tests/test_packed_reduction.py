"""Packed-reduction fast path vs the dict-based oracle.

The bitset-native :class:`repro.core.packed_reduction.PackedReductionState`
must produce **bit-identical** operation sequences — and therefore identical
forward circuits — to the networkx-backed
:class:`repro.core.reduction.ReductionState` for every strategy knob, across
all seven scenario-zoo families, including strict-budget overflow and the
scheduler's ``preferred_emitters`` affinity path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.metrics import compute_metrics
from repro.circuit.validation import verify_circuit_generates
from repro.core.compiler import compile_graph
from repro.core.packed_reduction import PackedReductionState, make_reduction_state
from repro.core.plan_scoring import score_sequence
from repro.core.reduction import (
    InsufficientEmittersError,
    ReductionOpType,
    ReductionState,
)
from repro.core.strategies import GreedyReductionStrategy, greedy_reduce
from repro.graphs.generators import lattice_graph, linear_cluster, star_graph
from repro.graphs.graph_state import GraphState
from repro.hardware import get_hardware_model
from repro.pipeline.jobs import GraphSpec

#: The seven scenario-zoo families the fast path must agree with the oracle on.
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


def assert_sequences_identical(graph, order, strategy):
    """Run both backends and assert op-for-op (and circuit) equality."""
    dense = greedy_reduce(
        graph, processing_order=order, strategy=strategy, backend="dense"
    )
    packed = greedy_reduce(
        graph, processing_order=order, strategy=strategy, backend="packed"
    )
    assert packed.operations == dense.operations
    assert packed.num_emitters == dense.num_emitters
    assert packed.emitters_over_budget == dense.emitters_over_budget
    assert packed.photon_of_vertex == dense.photon_of_vertex
    assert packed.to_circuit().gates == dense.to_circuit().gates
    return packed


class TestOracleEquivalence:
    @given(
        family=st.sampled_from(ZOO_FAMILIES),
        size=st.integers(4, 12),
        seed=st.integers(0, 10_000),
        budget_slack=st.sampled_from((None, 0, 1, 2)),
    )
    @settings(max_examples=60, deadline=None)
    def test_zoo_sequences_match_oracle(self, family, size, seed, budget_slack):
        graph = zoo_graph(family, size, seed)
        order = list(graph.vertices())
        np.random.default_rng(seed).shuffle(order)
        budget = None
        if budget_slack is not None:
            budget = max(1, 1 + budget_slack)
        strategy = GreedyReductionStrategy(emitter_budget=budget)
        sequence = assert_sequences_identical(graph, order, strategy)
        circuit = sequence.to_circuit()
        assert verify_circuit_generates(
            circuit, graph, photon_of_vertex=sequence.photon_of_vertex
        )

    @given(
        family=st.sampled_from(ZOO_FAMILIES),
        seed=st.integers(0, 5_000),
        prefer_disconnect=st.booleans(),
        allow_absorb=st.booleans(),
        twin_rule=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_strategy_knobs_match_oracle(
        self, family, seed, prefer_disconnect, allow_absorb, twin_rule
    ):
        graph = zoo_graph(family, 9, seed)
        strategy = GreedyReductionStrategy(
            emitter_budget=2,
            prefer_disconnect_over_allocate=prefer_disconnect,
            allow_disconnect_absorb=allow_absorb,
            enable_twin_rule=twin_rule,
        )
        assert_sequences_identical(graph, None, strategy)

    @given(
        family=st.sampled_from(ZOO_FAMILIES),
        seed=st.integers(0, 5_000),
        preferred=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    )
    @settings(max_examples=30, deadline=None)
    def test_preferred_emitters_affinity_matches_oracle(self, family, seed, preferred):
        graph = zoo_graph(family, 10, seed)
        strategy = GreedyReductionStrategy(
            emitter_budget=4, preferred_emitters=tuple(preferred)
        )
        assert_sequences_identical(graph, None, strategy)

    @given(seed=st.integers(0, 2_000), size=st.integers(5, 14))
    @settings(max_examples=30, deadline=None)
    def test_strict_budget_raises_identically(self, seed, size):
        graph = zoo_graph("erdos", size, seed)
        strategy = GreedyReductionStrategy(emitter_budget=1, strict_budget=True)
        outcomes = []
        for backend in ("dense", "packed"):
            try:
                sequence = greedy_reduce(graph, strategy=strategy, backend=backend)
                outcomes.append(("ok", sequence.operations))
            except InsufficientEmittersError:
                outcomes.append(("raised", None))
        assert outcomes[0] == outcomes[1]

    def test_budget_overflow_is_recorded_identically(self):
        # A 4x4 lattice needs more than one emitter: the soft budget must
        # overflow by the same amount on both backends.
        graph = lattice_graph(4, 4)
        strategy = GreedyReductionStrategy(emitter_budget=1, strict_budget=False)
        dense = greedy_reduce(graph, strategy=strategy, backend="dense")
        packed = greedy_reduce(graph, strategy=strategy, backend="packed")
        assert dense.emitters_over_budget > 0
        assert packed.emitters_over_budget == dense.emitters_over_budget
        assert packed.operations == dense.operations


class TestPackedStateBasics:
    def test_make_reduction_state_selects_backend(self):
        graph = linear_cluster(4)
        assert isinstance(
            make_reduction_state(graph, backend="packed"), PackedReductionState
        )
        assert isinstance(make_reduction_state(graph, backend="dense"), ReductionState)

    def test_queries_match_oracle_midway(self):
        graph = star_graph(6)
        dense = ReductionState(graph, emitter_budget=2)
        packed = PackedReductionState(graph, emitter_budget=2)
        for state in (dense, packed):
            # Swap out the hub: the emitter inherits all five leaves, so
            # photon 4 then dangles on emitter 0.
            state.apply_swap(0)
            state.apply_absorb_leaf(0, 4)
        assert packed.remaining_photons() == dense.remaining_photons()
        for photon in packed.remaining_photons():
            assert packed.photon_neighbors(photon) == dense.photon_neighbors(photon)
            assert packed.photon_degree(photon) == dense.photon_degree(photon)
            assert packed.photon_neighbor_counts(photon) == (
                dense.photon_neighbor_counts(photon)
            )
        for emitter in sorted(packed.active_emitters):
            assert packed.emitter_neighbors(emitter) == dense.emitter_neighbors(emitter)
            assert packed.emitter_degree(emitter) == dense.emitter_degree(emitter)
        assert packed.active_emitters == dense.active_emitters
        assert packed.free_emitters == dense.free_emitters

    def test_precondition_errors_match_oracle(self):
        graph = lattice_graph(2, 3)
        for state in (ReductionState(graph), PackedReductionState(graph)):
            with pytest.raises(ValueError, match="not in the working graph"):
                state.apply_swap(99)
            with pytest.raises(ValueError, match="not isolated"):
                state.apply_emit_isolated(0)
            state.apply_swap(0)
            with pytest.raises(ValueError, match="ABSORB_LEAF precondition"):
                state.apply_absorb_leaf(0, 3)
            with pytest.raises(ValueError, match="not adjacent"):
                state.apply_disconnect(0, 1)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="empty target graph"):
            PackedReductionState(GraphState())

    def test_photon_order_must_be_permutation(self):
        graph = linear_cluster(3)
        with pytest.raises(ValueError, match="permutation"):
            PackedReductionState(graph, photon_order=[0, 1])


#: Strategies the scoring tests reduce with: the default, and a budget of one
#: that prefers liberating an idle emitter over allocating (the liberation path).
SCORING_STRATEGIES = {
    "default": GreedyReductionStrategy(),
    "liberate": GreedyReductionStrategy(
        emitter_budget=1, prefer_disconnect_over_allocate=True
    ),
}

#: Hardware presets whose gate durations the scorer must honour.
SCORING_HARDWARE = ("quantum_dot", "nv_center", "siv_center", "rydberg_atom")

#: Fixed scoring cases that together reach every op type and path.
SCORING_EXAMPLES = (
    # Twins, isolated photons, and photon 0 emitted from emitter 0.
    ("percolated", 0, "default", "nv_center", True),
    # ABSORB_LEAF.
    ("surface", 0, "default", "rydberg_atom", True),
    # Liberation: DISCONNECT(e, .), FREE_EMITTER(e), then a SWAP.
    ("smallworld", 1, "liberate", "siv_center", True),
)


def scored_sequence(family, seed, strategy, hardware, isolated):
    """Reduce a zoo graph and assert the scorer equals the circuit metrics.

    ``isolated`` adds a vertex with no edges, which the reduction removes
    with ``EMIT_ISOLATED``.  Both accepted inputs are scored: the sequence
    and its bare operation list.
    """
    graph = zoo_graph(family, 10, seed)
    if isolated:
        graph.add_vertex("isolated")
    sequence = greedy_reduce(graph, strategy=SCORING_STRATEGIES[strategy])
    durations = get_hardware_model(hardware).durations
    metrics = compute_metrics(sequence.to_circuit(), durations=durations, policy="alap")
    expected = (
        float(metrics.num_emitter_emitter_cnots),
        metrics.average_photon_loss_duration,
        metrics.duration,
    )
    assert score_sequence(sequence, durations=durations) == expected
    assert score_sequence(sequence.operations, durations=durations) == expected
    return sequence


class TestPlanScoring:
    @given(
        family=st.sampled_from(ZOO_FAMILIES),
        seed=st.integers(0, 5_000),
        strategy=st.sampled_from(sorted(SCORING_STRATEGIES)),
        hardware=st.sampled_from(SCORING_HARDWARE),
        isolated=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_score_matches_materialised_metrics(
        self, family, seed, strategy, hardware, isolated
    ):
        scored_sequence(family, seed, strategy, hardware, isolated)

    def test_score_examples_reach_every_op_type_and_path(self):
        sequences = [scored_sequence(*case) for case in SCORING_EXAMPLES]
        ops = [op for sequence in sequences for op in sequence.operations]
        assert {op.op_type for op in ops} == set(ReductionOpType)
        # Emitter 0 and photon 0 are the int keys 0 and ~0 inside the scorer.
        assert any(op.emitter == 0 and op.photon == 0 for op in ops)
        liberations = [
            (a, b, c)
            for sequence in sequences
            for a, b, c in zip(
                sequence.operations, sequence.operations[1:], sequence.operations[2:]
            )
            if a.op_type is ReductionOpType.DISCONNECT
            and b.op_type is ReductionOpType.FREE_EMITTER
            and c.op_type is ReductionOpType.SWAP
            and a.emitter == b.emitter
        ]
        assert liberations


class TestCompilerBackendEquivalence:
    @given(
        family=st.sampled_from(ZOO_FAMILIES),
        seed=st.integers(0, 1_000),
    )
    @settings(max_examples=12, deadline=None)
    def test_compiled_circuits_identical_across_backends(self, family, seed):
        graph = zoo_graph(family, 9, seed)
        dense = compile_graph(graph, gf2_backend="dense", verify=True)
        packed = compile_graph(graph, gf2_backend="packed", verify=True)
        assert packed.circuit.gates == dense.circuit.gates
        assert packed.metrics.as_dict() == dense.metrics.as_dict()
        assert packed.verified and dense.verified
