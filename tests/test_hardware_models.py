"""Tests for the hardware platform presets."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.metrics import compute_metrics
from repro.circuit.timing import GateDurations
from repro.core.compiler import EmitterCompiler
from repro.core.config import CompilerConfig
from repro.core.plan_scoring import score_sequence
from repro.graphs.graph_state import GraphState
from repro.hardware.loss import PhotonLossModel
from repro.hardware.models import (
    HardwareModel,
    get_hardware_model,
    nv_center,
    quantum_dot,
    rydberg_atom,
    siv_center,
)


class TestPresets:
    @pytest.mark.parametrize(
        "factory", [quantum_dot, nv_center, siv_center, rydberg_atom]
    )
    def test_presets_are_valid(self, factory):
        model = factory()
        assert isinstance(model, HardwareModel)
        assert model.durations.emitter_emitter_gate == pytest.approx(1.0)
        assert 0 < model.durations.emission < 1
        assert 0 <= model.photon_loss_per_tau < 1

    def test_quantum_dot_matches_paper_numbers(self):
        model = quantum_dot()
        assert model.tau_seconds == pytest.approx(1e-9)
        assert model.durations.emission == pytest.approx(0.1)
        assert model.photon_loss_per_tau == pytest.approx(0.005)
        assert model.emitter_emitter_fidelity >= 0.99

    def test_quantum_dot_exchange_strength_scales_tau(self):
        fast = quantum_dot(exchange_strength_ghz=2.0)
        assert fast.tau_seconds == pytest.approx(0.5e-9)
        with pytest.raises(ValueError):
            quantum_dot(exchange_strength_ghz=0)

    def test_loss_model_construction(self):
        model = quantum_dot()
        loss = model.loss_model()
        assert isinstance(loss, PhotonLossModel)
        assert loss.loss_per_tau == model.photon_loss_per_tau

    def test_fidelity_estimate(self):
        model = quantum_dot()
        assert model.circuit_fidelity_estimate(0) == pytest.approx(1.0)
        assert model.circuit_fidelity_estimate(10) == pytest.approx(0.99 ** 10)
        with pytest.raises(ValueError):
            model.circuit_fidelity_estimate(-1)


class TestLookup:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("quantum_dot", "quantum_dot"),
            ("QD", "quantum_dot"),
            ("nv", "nv_center"),
            ("SiV", "siv_center"),
            ("rydberg", "rydberg_atom"),
        ],
    )
    def test_lookup_by_name(self, name, expected):
        assert get_hardware_model(name).name == expected

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown hardware model"):
            get_hardware_model("trapped_ion")


class TestValidation:
    def test_invalid_loss_rate(self):
        with pytest.raises(ValueError):
            HardwareModel(
                name="bad",
                durations=GateDurations(),
                tau_seconds=1e-9,
                photon_loss_per_tau=1.5,
                emitter_coherence_time=1.0,
                emitter_emitter_fidelity=0.99,
            )

    def test_invalid_fidelity(self):
        with pytest.raises(ValueError):
            HardwareModel(
                name="bad",
                durations=GateDurations(),
                tau_seconds=1e-9,
                photon_loss_per_tau=0.01,
                emitter_coherence_time=1.0,
                emitter_emitter_fidelity=1.2,
            )

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            HardwareModel(
                name="bad",
                durations=GateDurations(),
                tau_seconds=0.0,
                photon_loss_per_tau=0.01,
                emitter_coherence_time=1.0,
                emitter_emitter_fidelity=0.9,
            )


# --------------------------------------------------------------------------- #
# Plan scoring vs materialized-circuit metrics under varied hardware timings
# --------------------------------------------------------------------------- #

duration_inputs = st.tuples(
    st.floats(min_value=0.2, max_value=3.0),    # emitter_emitter_gate
    st.floats(min_value=0.01, max_value=0.5),   # emission
    st.floats(min_value=0.0, max_value=0.2),    # emitter_single_qubit
    st.floats(min_value=0.0, max_value=0.05),   # photon_single_qubit
    st.floats(min_value=0.0, max_value=0.3),    # measurement
    st.floats(min_value=0.0, max_value=0.2),    # reset
)

graph_inputs = st.tuples(
    st.integers(min_value=2, max_value=7),
    st.floats(min_value=0.2, max_value=0.8),
    st.integers(min_value=0, max_value=10_000),
)


def _build_graph(params) -> GraphState:
    n, p, seed = params
    return GraphState.from_networkx(nx.gnp_random_graph(n, p, seed=seed))


def _durations(params) -> GateDurations:
    ee, emission, e1, p1, meas, reset = params
    return GateDurations(
        emitter_emitter_gate=ee,
        emission=emission,
        emitter_single_qubit=e1,
        photon_single_qubit=p1,
        measurement=meas,
        reset=reset,
    )


def _compile_sequence(graph: GraphState):
    config = CompilerConfig(
        max_order_candidates=12, exhaustive_order_threshold=4, lc_budget=4
    )
    return EmitterCompiler(config).compile(graph).sequence


class TestScoreSequenceMatchesMetrics:
    @given(graph_inputs, duration_inputs)
    @settings(max_examples=25, deadline=None)
    def test_score_matches_compute_metrics_under_varied_durations(
        self, graph_params, duration_params
    ):
        graph = _build_graph(graph_params)
        durations = _durations(duration_params)
        sequence = _compile_sequence(graph)
        score = score_sequence(sequence, durations=durations)
        metrics = compute_metrics(
            sequence.to_circuit(), durations=durations, policy="alap"
        )
        assert score == (
            float(metrics.num_emitter_emitter_cnots),
            metrics.average_photon_loss_duration,
            metrics.duration,
        )

    @given(graph_inputs)
    @settings(max_examples=15, deadline=None)
    def test_score_matches_every_hardware_preset(self, graph_params):
        graph = _build_graph(graph_params)
        sequence = _compile_sequence(graph)
        for factory in (quantum_dot, nv_center, siv_center, rydberg_atom):
            durations = factory().durations
            score = score_sequence(sequence, durations=durations)
            metrics = compute_metrics(
                sequence.to_circuit(), durations=durations, policy="alap"
            )
            assert score == (
                float(metrics.num_emitter_emitter_cnots),
                metrics.average_photon_loss_duration,
                metrics.duration,
            )


class TestLossEdgeCases:
    def test_zero_loss_model_keeps_every_photon(self):
        loss = PhotonLossModel(loss_per_tau=0.0)
        assert loss.survival_probability(123.4) == 1.0
        assert loss.loss_probability(123.4) == 0.0
        assert loss.state_survival_probability({0: 5.0, 1: 9.0}) == 1.0
        graph = GraphState.from_networkx(nx.path_graph(3))
        result = EmitterCompiler(CompilerConfig()).compile(graph)
        metrics = compute_metrics(result.circuit, loss_model=loss)
        assert metrics.photon_loss_probability == 0.0
        assert metrics.photon_survival_probability == 1.0

    def test_single_photon_state_metrics(self):
        graph = GraphState(vertices=[0])
        result = EmitterCompiler(CompilerConfig()).compile(graph)
        loss = quantum_dot().loss_model()
        metrics = compute_metrics(
            result.circuit, durations=quantum_dot().durations, loss_model=loss
        )
        assert metrics.num_photons == 1
        assert metrics.num_emitter_emitter_cnots == 0
        # One photon: the state survival probability is that photon's own.
        assert metrics.photon_survival_probability == pytest.approx(
            loss.survival_probability(metrics.total_photon_exposure)
        )

    def test_score_sequence_single_photon(self):
        graph = GraphState(vertices=[0])
        sequence = EmitterCompiler(CompilerConfig()).compile(graph).sequence
        score = score_sequence(sequence)
        metrics = compute_metrics(sequence.to_circuit())
        assert score == (
            float(metrics.num_emitter_emitter_cnots),
            metrics.average_photon_loss_duration,
            metrics.duration,
        )
