"""Equivalence of the packed GF(2)/stabilizer fast path with the dense oracle.

The packed backend (``repro.utils.gf2_packed`` + the packed tableau/canonical
paths) promises *bit-exact* agreement with the dense implementation.  These
tests enforce that promise property-based: random matrices, random graphs and
random Clifford circuits are pushed through both backends and every output —
ranks, echelon forms, nullspaces, solutions, tableaus, signs, measurement
outcomes, canonical matrices — must be identical.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.entanglement import cut_rank, minimum_emitters
from repro.graphs.graph_state import GraphState
from repro.stabilizer.canonical import canonical_stabilizer_matrix, states_equal
from repro.stabilizer.tableau import StabilizerState
from repro.utils import backend as backend_module
from repro.utils import gf2
from repro.utils.backend import (
    get_default_backend,
    resolve_backend,
    set_default_backend,
    use_backend,
)
from repro.utils.gf2_packed import (
    pack_matrix,
    packed_gf2_matmul,
    popcount_words,
    unpack_matrix,
    words_per_row,
)

matrix_inputs = st.tuples(
    st.integers(min_value=1, max_value=9),       # rows
    st.integers(min_value=1, max_value=9),       # cols
    st.integers(min_value=0, max_value=100_000),  # seed
)

# Shapes straddling the 64-bit word boundary in columns (and, for the two
# tall ones, in rows), where packing bugs hide; exercised deterministically on
# top of the hypothesis sweeps.
WIDE_SHAPES = [
    (5, 63), (7, 64), (6, 65), (4, 127), (9, 130), (3, 200),
    (40, 63), (40, 64), (40, 65), (40, 127), (40, 128), (40, 129), (40, 200),
    (65, 30), (130, 30),
]


def random_matrix(rows: int, cols: int, seed: int, density: float = 0.5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.random((rows, cols)) < density).astype(np.uint8)


class TestBackendRegistry:
    def test_resolve_and_default(self):
        assert resolve_backend(None) == get_default_backend()
        assert resolve_backend("dense") == "dense"
        assert resolve_backend("PACKED") == "packed"
        for name in ("simd", "arena"):
            with pytest.raises(ValueError):
                resolve_backend(name)

    def test_unrecognised_env_value_falls_back_to_packed(self, monkeypatch):
        monkeypatch.setenv("REPRO_GF2_BACKEND", "arena")
        monkeypatch.setattr(backend_module, "_default_backend", backend_module._UNRESOLVED)
        with pytest.warns(RuntimeWarning, match="arena"):
            assert get_default_backend() == "packed"

    def test_use_backend_restores_default(self):
        before = get_default_backend()
        with use_backend("dense"):
            assert get_default_backend() == "dense"
        assert get_default_backend() == before
        with use_backend(None):
            assert get_default_backend() == before
        assert get_default_backend() == before

    def test_set_default_backend_returns_previous(self):
        before = get_default_backend()
        try:
            assert set_default_backend("dense") == before
            assert get_default_backend() == "dense"
        finally:
            set_default_backend(before)

    def test_use_backend_is_per_thread(self):
        """Interleave A enters X, B enters Y, A exits, B exits on two threads.

        A process-global save/restore leaves X as the process default after
        this schedule, and shows A the backend B entered; a per-thread
        override leaves the default alone and each thread sees its own.
        """
        before = get_default_backend()
        other = "dense" if before != "dense" else "packed"
        a_entered, b_entered, a_exited = (threading.Event() for _ in range(3))
        seen: dict[str, str] = {}

        def thread_a():
            with use_backend(other):
                a_entered.set()
                b_entered.wait(5)
                seen["a"] = get_default_backend()
            a_exited.set()

        def thread_b():
            a_entered.wait(5)
            with use_backend(before):
                b_entered.set()
                a_exited.wait(5)
                seen["b"] = get_default_backend()

        threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
            assert seen == {"a": other, "b": before}
            assert get_default_backend() == before
        finally:
            set_default_backend(before)


class TestPacking:
    @given(matrix_inputs)
    @settings(max_examples=60, deadline=None)
    def test_pack_unpack_roundtrip(self, params):
        rows, cols, seed = params
        matrix = random_matrix(rows, cols, seed)
        words = pack_matrix(matrix)
        assert words.shape == (rows, words_per_row(cols))
        assert words.dtype == np.uint64
        assert np.array_equal(unpack_matrix(words, cols), matrix)

    def test_pack_unpack_roundtrip_wide(self):
        for rows, cols in WIDE_SHAPES:
            matrix = random_matrix(rows, cols, seed=rows * cols)
            assert np.array_equal(unpack_matrix(pack_matrix(matrix), cols), matrix)

    def test_popcount_matches_row_sums(self):
        matrix = random_matrix(6, 130, seed=5)
        assert np.array_equal(
            popcount_words(pack_matrix(matrix)), matrix.sum(axis=1, dtype=np.int64)
        )


class TestKernelEquivalence:
    @given(matrix_inputs)
    @settings(max_examples=80, deadline=None)
    def test_rank_rref_nullspace_agree(self, params):
        rows, cols, seed = params
        matrix = random_matrix(rows, cols, seed)
        assert gf2.gf2_rank(matrix, backend="packed") == gf2.gf2_rank(
            matrix, backend="dense"
        )
        dense_rref, dense_pivots = gf2.gf2_rref(matrix, backend="dense")
        packed_rref, packed_pivots = gf2.gf2_rref(matrix, backend="packed")
        assert packed_pivots == dense_pivots
        assert np.array_equal(packed_rref, dense_rref)
        assert np.array_equal(
            gf2.gf2_nullspace(matrix, backend="packed"),
            gf2.gf2_nullspace(matrix, backend="dense"),
        )

    @given(matrix_inputs)
    @settings(max_examples=60, deadline=None)
    def test_solve_agrees(self, params):
        rows, cols, seed = params
        matrix = random_matrix(rows, cols, seed)
        rhs = random_matrix(1, rows, seed + 1)[0]
        dense = gf2.gf2_solve(matrix, rhs, backend="dense")
        packed = gf2.gf2_solve(matrix, rhs, backend="packed")
        if dense is None:
            assert packed is None
        else:
            assert packed is not None
            assert np.array_equal(packed, dense)

    @given(matrix_inputs, st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_matmul_agrees(self, params, inner):
        rows, cols, seed = params
        left = random_matrix(rows, inner, seed)
        right = random_matrix(inner, cols, seed + 2)
        assert np.array_equal(
            gf2.gf2_matmul(left, right, backend="packed"),
            gf2.gf2_matmul(left, right, backend="dense"),
        )
        # The module-level kernel is the same code path the backend routes to.
        assert np.array_equal(
            packed_gf2_matmul(left, right),
            gf2.gf2_matmul(left, right, backend="dense"),
        )

    def test_wide_matrices_agree(self):
        for rows, cols in WIDE_SHAPES:
            matrix = random_matrix(rows, cols, seed=rows + 31 * cols)
            assert gf2.gf2_rank(matrix, backend="packed") == gf2.gf2_rank(
                matrix, backend="dense"
            )
            dense_rref, dense_pivots = gf2.gf2_rref(matrix, backend="dense")
            packed_rref, packed_pivots = gf2.gf2_rref(matrix, backend="packed")
            assert packed_pivots == dense_pivots
            assert np.array_equal(packed_rref, dense_rref)
            assert np.array_equal(
                gf2.gf2_nullspace(matrix, backend="packed"),
                gf2.gf2_nullspace(matrix, backend="dense"),
            )
            # One consistent right-hand side (in the column space) and one
            # random one, usually inconsistent when the rank is below the row
            # count.
            x = random_matrix(1, cols, seed=rows * cols)[0]
            for rhs in (
                gf2.gf2_matmul(matrix, x.reshape(-1, 1), backend="dense").ravel(),
                random_matrix(1, rows, seed=rows + cols)[0],
            ):
                dense = gf2.gf2_solve(matrix, rhs, backend="dense")
                packed = gf2.gf2_solve(matrix, rhs, backend="packed")
                if dense is None:
                    assert packed is None
                else:
                    assert packed is not None
                    assert np.array_equal(packed, dense)


def random_graph(num_vertices: int, seed: int) -> GraphState:
    rng = np.random.default_rng(seed)
    graph = GraphState(vertices=range(num_vertices))
    for u in range(num_vertices):
        for v in range(u + 1, num_vertices):
            if rng.random() < 0.4:
                graph.add_edge(u, v)
    return graph


class TestGraphEquivalence:
    @given(
        st.integers(min_value=2, max_value=9),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_cut_rank_agrees(self, num_vertices, seed):
        graph = random_graph(num_vertices, seed)
        rng = np.random.default_rng(seed + 1)
        subset = [v for v in graph.vertices() if rng.random() < 0.5]
        assert cut_rank(graph, subset, backend="packed") == cut_rank(
            graph, subset, backend="dense"
        )

    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_minimum_emitters_agrees(self, num_vertices, seed):
        graph = random_graph(num_vertices, seed)
        assert minimum_emitters(graph, backend="packed") == minimum_emitters(
            graph, backend="dense"
        )

    def test_cut_rank_agrees_beyond_word_boundary(self):
        graph = random_graph(70, seed=3)
        subset = list(range(33))
        assert cut_rank(graph, subset, backend="packed") == cut_rank(
            graph, subset, backend="dense"
        )


SINGLE_QUBIT_GATES = ("h", "s", "sdg", "x_gate", "y_gate", "z_gate", "sqrt_x", "sqrt_x_dag")


def apply_random_circuit(
    dense: StabilizerState, packed: StabilizerState, rng: np.random.Generator, steps: int
) -> None:
    """Drive both states through the same random gates/measurements."""
    n = dense.num_qubits
    for _ in range(steps):
        op = int(rng.integers(0, 4))
        if op == 0 or n == 1:
            gate = SINGLE_QUBIT_GATES[int(rng.integers(0, len(SINGLE_QUBIT_GATES)))]
            qubit = int(rng.integers(0, n))
            getattr(dense, gate)(qubit)
            getattr(packed, gate)(qubit)
        elif op == 1:
            a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
            dense.cnot(a, b)
            packed.cnot(a, b)
        elif op == 2:
            a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
            dense.cz(a, b)
            packed.cz(a, b)
        else:
            qubit = int(rng.integers(0, n))
            forced = int(rng.integers(0, 2))
            assert dense.measure_z(qubit, forced_outcome=forced) == packed.measure_z(
                qubit, forced_outcome=forced
            )


class TestTableauEquivalence:
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_circuits_agree(self, num_qubits, seed):
        rng = np.random.default_rng(seed)
        dense = StabilizerState(num_qubits, backend="dense")
        packed = StabilizerState(num_qubits, backend="packed")
        apply_random_circuit(dense, packed, rng, steps=30)
        assert np.array_equal(dense.x, packed.x)
        assert np.array_equal(dense.z, packed.z)
        assert np.array_equal(dense.r, packed.r)
        assert np.array_equal(
            dense.stabilizer_matrix(), packed.stabilizer_matrix()
        )
        assert np.array_equal(
            canonical_stabilizer_matrix(dense), canonical_stabilizer_matrix(packed)
        )
        assert states_equal(dense, packed)

    @given(
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_contains_pauli_agrees(self, num_qubits, seed):
        rng = np.random.default_rng(seed)
        dense = StabilizerState(num_qubits, backend="dense")
        packed = StabilizerState(num_qubits, backend="packed")
        apply_random_circuit(dense, packed, rng, steps=20)
        x_bits = rng.integers(0, 2, size=num_qubits).astype(np.uint8)
        z_bits = rng.integers(0, 2, size=num_qubits).astype(np.uint8)
        for sign in (0, 1):
            assert dense.contains_pauli(x_bits, z_bits, sign=sign) == (
                packed.contains_pauli(x_bits, z_bits, sign=sign)
            )

    def test_graph_state_agrees_beyond_word_boundary(self):
        n = 70
        rng = np.random.default_rng(9)
        edges = [(i, (i + 1) % n) for i in range(n)]
        edges += [
            (int(u), int(v))
            for u, v in rng.choice(n, size=(40, 2))
            if u != v
        ]
        dense = StabilizerState.from_graph_edges(n, edges, backend="dense")
        packed = StabilizerState.from_graph_edges(n, edges, backend="packed")
        assert np.array_equal(dense.x, packed.x)
        assert np.array_equal(dense.z, packed.z)
        assert np.array_equal(dense.r, packed.r)
        assert np.array_equal(
            canonical_stabilizer_matrix(dense), canonical_stabilizer_matrix(packed)
        )
        assert states_equal(dense, packed)

    def test_copy_is_independent(self):
        packed = StabilizerState.from_graph_edges(5, [(0, 1), (1, 2)], backend="packed")
        clone = packed.copy()
        clone.h(0)
        assert not np.array_equal(packed.x, clone.x)
        assert clone.backend == "packed"

    def test_measurement_statistics_match_across_backends(self):
        # Same seed => identical sampled outcomes, not just forced ones.
        for seed in range(5):
            dense = StabilizerState(4, seed=seed, backend="dense")
            packed = StabilizerState(4, seed=seed, backend="packed")
            for q in range(4):
                dense.h(q)
                packed.h(q)
            outcomes_dense = [dense.measure_z(q) for q in range(4)]
            outcomes_packed = [packed.measure_z(q) for q in range(4)]
            assert outcomes_dense == outcomes_packed
