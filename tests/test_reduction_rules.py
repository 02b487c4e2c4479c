"""Tests for the time-reversed reduction engine and its exact rewrite rules.

Every reversed operation claims a forward gate realisation; the tests here
apply a single operation to small working graphs and verify, on the
stabilizer simulator, that the forward circuit produced by reversing the full
sequence generates exactly the target graph state.  Precondition violations
and bookkeeping (emitter budgets, finish) are covered as well.
"""

from __future__ import annotations

import pickle

import pytest

from repro.circuit.validation import verify_circuit_generates
from repro.core.reduction import (
    InsufficientEmittersError,
    ReductionOp,
    ReductionOpType,
    ReductionState,
)
from repro.graphs.generators import linear_cluster, star_graph
from repro.graphs.graph_state import GraphState


def verify_state(state: ReductionState, target: GraphState) -> bool:
    sequence = state.finish()
    circuit = sequence.to_circuit()
    return verify_circuit_generates(
        circuit, target, photon_of_vertex=sequence.photon_of_vertex
    )


class TestSwap:
    def test_swap_then_leaf_absorption_generates_an_edge(self):
        target = GraphState(vertices=[0, 1], edges=[(0, 1)])
        state = ReductionState(target)
        state.apply_swap(1)
        state.apply_absorb_leaf(0, 0)
        assert verify_state(state, target)

    def test_swap_transfers_the_whole_neighbourhood(self):
        target = star_graph(4)
        state = ReductionState(target)
        emitter = state.apply_swap(0)  # centre
        _, emitters = state.photon_neighbors(1)
        assert emitters == {emitter}

    def test_swap_missing_photon_raises(self):
        state = ReductionState(linear_cluster(2))
        state.apply_swap(1)
        with pytest.raises(ValueError):
            state.apply_swap(1)

    def test_full_star_generation_via_swap(self):
        target = star_graph(5)
        state = ReductionState(target)
        emitter = state.apply_swap(0)
        # Every leaf now dangles on the emitter that replaced the centre.
        for leaf in (1, 2, 3, 4):
            state.apply_absorb_leaf(emitter, leaf)
        assert verify_state(state, target)


class TestAbsorptionRules:
    def test_absorb_leaf_precondition(self):
        target = linear_cluster(3)
        state = ReductionState(target)
        state.apply_swap(2)
        with pytest.raises(ValueError):
            state.apply_absorb_leaf(0, 0)  # photon 0 not adjacent to emitter 0

    def test_absorb_dangling_inherits_neighbourhood(self):
        target = linear_cluster(4)
        state = ReductionState(target)
        emitter = state.apply_swap(3)
        state.apply_absorb_dangling(emitter, 2)
        _, emitters = state.photon_neighbors(1)
        assert emitters == {emitter}
        state.apply_absorb_dangling(emitter, 1)
        state.apply_absorb_leaf(emitter, 0)
        assert verify_state(state, target)

    def test_absorb_dangling_requires_degree_one_emitter(self):
        target = star_graph(4)
        state = ReductionState(target)
        emitter = state.apply_swap(0)
        # The emitter now has three neighbours; it is not dangling.
        with pytest.raises(ValueError):
            state.apply_absorb_dangling(emitter, 1)

    def test_absorb_twin_requires_identical_neighbourhoods(self):
        target = linear_cluster(4)
        state = ReductionState(target)
        emitter = state.apply_swap(3)
        with pytest.raises(ValueError):
            state.apply_absorb_twin(emitter, 1)

    def test_absorb_twin_requires_non_adjacency(self):
        target = GraphState(vertices=[0, 1], edges=[(0, 1)])
        state = ReductionState(target)
        emitter = state.apply_swap(1)
        with pytest.raises(ValueError):
            state.apply_absorb_twin(emitter, 0)

    def test_twin_rule_round_trip(self):
        # Two twins attached to a common neighbour.
        target = GraphState(vertices=[0, 1, 2], edges=[(0, 2), (1, 2)])
        state = ReductionState(target)
        emitter = state.apply_swap(0)
        state.apply_absorb_twin(emitter, 1)
        state.apply_absorb_leaf(emitter, 2)
        assert verify_state(state, target)


class TestDisconnectAndIsolated:
    def test_disconnect_requires_an_edge(self):
        target = linear_cluster(3)
        state = ReductionState(target)
        a = state.apply_swap(2)
        b = state.apply_swap(0)
        with pytest.raises(ValueError):
            state.apply_disconnect(a, b)

    def test_triangle_generation_with_disconnect(self):
        target = GraphState(vertices=[0, 1, 2], edges=[(0, 1), (1, 2), (0, 2)])
        state = ReductionState(target)
        a = state.apply_swap(2)
        b = state.apply_swap(1)
        # Both emitters hold photon 0 and an emitter-emitter edge.
        state.apply_disconnect(a, b)
        state.apply_absorb_dangling(b, 0)
        assert verify_state(state, target)

    def test_isolated_photon(self):
        target = GraphState(vertices=[0, 1], edges=[])
        state = ReductionState(target)
        state.apply_emit_isolated(0)
        state.apply_emit_isolated(1)
        assert verify_state(state, target)

    def test_isolated_requires_degree_zero(self):
        state = ReductionState(linear_cluster(2))
        with pytest.raises(ValueError):
            state.apply_emit_isolated(0)

    def test_free_emitter_requires_isolation(self):
        target = linear_cluster(2)
        state = ReductionState(target)
        emitter = state.apply_swap(1)
        with pytest.raises(ValueError):
            state.apply_free_emitter(emitter)


class TestBudgetsAndFinish:
    def test_strict_budget_raises(self):
        target = linear_cluster(3)
        state = ReductionState(target, emitter_budget=1, strict_budget=True)
        state.apply_swap(2)
        with pytest.raises(InsufficientEmittersError):
            state.apply_swap(0)

    def test_soft_budget_records_overflow(self):
        target = linear_cluster(3)
        state = ReductionState(target, emitter_budget=1)
        state.apply_swap(2)
        state.apply_swap(0)
        assert state.emitters_over_budget == 1

    def test_finish_rejects_remaining_photons(self):
        state = ReductionState(linear_cluster(2))
        with pytest.raises(RuntimeError):
            state.finish()

    def test_finish_cleans_up_emitter_edges(self):
        target = GraphState(vertices=[0, 1], edges=[(0, 1)])
        state = ReductionState(target)
        state.apply_swap(1)
        state.apply_swap(0)
        sequence = state.finish()
        assert sequence.num_emitter_emitter_gates == 1
        assert verify_circuit_generates(
            sequence.to_circuit(), target, photon_of_vertex=sequence.photon_of_vertex
        )

    def test_sequence_bookkeeping(self):
        target = linear_cluster(3)
        state = ReductionState(target)
        state.apply_swap(2)
        state.apply_absorb_dangling(0, 1)
        state.apply_absorb_leaf(0, 0)
        sequence = state.finish()
        assert sequence.num_emissions == 3
        assert sequence.num_photons == 3
        assert sequence.emission_order() == [0, 1, 2]
        assert all(isinstance(op.op_type, ReductionOpType) for op in sequence.operations)

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError):
            ReductionState(GraphState())

    def test_invalid_photon_order_rejected(self):
        with pytest.raises(ValueError):
            ReductionState(linear_cluster(3), photon_order=[0, 1])


class TestReductionOpContract:
    def test_ops_are_immutable(self):
        op = ReductionOp(ReductionOpType.SWAP, emitter=0, photon=3)
        with pytest.raises(AttributeError):
            op.photon = 4  # type: ignore[misc]
        with pytest.raises(AttributeError):
            op.tag = "x"  # type: ignore[misc]

    def test_repr_and_defaults(self):
        assert repr(ReductionOp(ReductionOpType.SWAP, emitter=0, photon=3)) == "swap(e0,p3)"
        assert (
            repr(ReductionOp(ReductionOpType.DISCONNECT, emitter=1, emitter_b=2, tag="stem"))
            == "disconnect(e1,e2)"
        )
        assert repr(ReductionOp(ReductionOpType.FREE_EMITTER, emitter=5)) == "free_emitter(e5)"
        op = ReductionOp(ReductionOpType.EMIT_ISOLATED)
        assert (op.emitter, op.emitter_b, op.photon, op.tag) == (None, None, None, "")
        assert ReductionOp(ReductionOpType.SWAP, 0, None, 3, "") == ReductionOp(
            ReductionOpType.SWAP, emitter=0, photon=3
        )

    def test_properties(self):
        emitting = {
            ReductionOpType.SWAP,
            ReductionOpType.ABSORB_LEAF,
            ReductionOpType.ABSORB_DANGLING,
            ReductionOpType.ABSORB_TWIN,
            ReductionOpType.EMIT_ISOLATED,
        }
        for op_type in ReductionOpType:
            op = ReductionOp(op_type)
            assert op.is_emission == (op_type in emitting)
            assert op.is_emitter_emitter_gate == (op_type is ReductionOpType.DISCONNECT)

    def test_ops_survive_a_pickle_round_trip(self):
        target = linear_cluster(4)
        state = ReductionState(target)
        state.apply_swap(3)
        state.apply_swap(2)
        state.apply_disconnect(0, 1, tag="cut")
        state.apply_absorb_dangling(1, 1)
        state.apply_absorb_leaf(1, 0)
        operations = state.finish().operations
        clone = pickle.loads(pickle.dumps(operations))
        assert clone == operations
        assert [type(op) for op in clone] == [ReductionOp] * len(operations)
        assert [op.tag for op in clone] == [op.tag for op in operations]
