"""Packed GF(2) backend against the dense oracle at word boundaries.

Three layers of bit-identity guarantees:

* kernel level — the packed big-int kernels agree with the dense uint8
  oracle on every input, including widths and heights that cross the
  64-bit word boundary;
* reduction level — ``greedy_reduce`` on packed produces the exact same
  operation sequence (and forward circuit) as dense;
* engine level — ``CutRankEngine`` heights match the dense one-rank-per-prefix
  evaluation on the full scenario zoo.

The module, and one test, keep the names they had when a third, word-arena
backend also sat in these comparisons; that backend is gone and every case
now pins ``packed`` against ``dense``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.packed_reduction import PackedReductionState, make_reduction_state
from repro.core.reduction import ReductionState
from repro.core.strategies import greedy_reduce
from repro.graphs.entanglement import height_function
from repro.graphs.generators import (
    erdos_renyi_graph,
    ghz_graph,
    percolated_lattice,
    random_regular_graph,
    rotated_surface_code_graph,
    steane_code_graph,
    watts_strogatz_graph,
)
from repro.graphs.incremental import CutRankEngine
from repro.utils.gf2 import gf2_matmul, gf2_nullspace, gf2_rank, gf2_rref, gf2_solve

binary_matrices = arrays(
    dtype=np.uint8,
    shape=st.tuples(st.integers(1, 8), st.integers(1, 8)),
    elements=st.integers(0, 1),
)

#: The seven scenario-zoo families of the evaluation harness.
ZOO_GRAPHS = {
    "regular": lambda: random_regular_graph(12, degree=3, seed=5),
    "smallworld": lambda: watts_strogatz_graph(14, k=4, seed=5),
    "erdos": lambda: erdos_renyi_graph(12, seed=5),
    "percolated": lambda: percolated_lattice(4, 4, seed=5),
    "ghz": lambda: ghz_graph(10),
    "steane": lambda: steane_code_graph(),
    "surface": lambda: rotated_surface_code_graph(3),
}


def assert_kernels_match(matrix: np.ndarray) -> None:
    """rank, rref, nullspace and solve agree between packed and dense."""
    assert gf2_rank(matrix, backend="packed") == gf2_rank(matrix, backend="dense")
    ref_m, ref_p = gf2_rref(matrix, backend="dense")
    got_m, got_p = gf2_rref(matrix, backend="packed")
    assert np.array_equal(got_m, ref_m)
    assert list(got_p) == list(ref_p)
    assert np.array_equal(
        gf2_nullspace(matrix, backend="packed"),
        gf2_nullspace(matrix, backend="dense"),
    )
    x = np.arange(matrix.shape[1], dtype=np.uint8) % 2
    b = gf2_matmul(matrix, x.reshape(-1, 1)).ravel()
    for backend in ("dense", "packed"):
        solution = gf2_solve(matrix, b, backend=backend)
        assert solution is not None, backend
        check = gf2_matmul(matrix, np.asarray(solution).reshape(-1, 1)).ravel()
        assert np.array_equal(check, b), backend


class TestKernelEquivalence:
    """packed == dense on every bulk kernel."""

    @given(binary_matrices)
    @settings(max_examples=60, deadline=None)
    def test_rank_matches_across_backends(self, matrix):
        assert gf2_rank(matrix, backend="packed") == gf2_rank(matrix, backend="dense")

    @given(binary_matrices)
    @settings(max_examples=60, deadline=None)
    def test_rref_matches_across_backends(self, matrix):
        ref_matrix, ref_pivots = gf2_rref(matrix, backend="dense")
        got_matrix, got_pivots = gf2_rref(matrix, backend="packed")
        assert np.array_equal(got_matrix, ref_matrix)
        assert list(got_pivots) == list(ref_pivots)

    @given(binary_matrices)
    @settings(max_examples=60, deadline=None)
    def test_nullspace_matches_across_backends(self, matrix):
        assert np.array_equal(
            gf2_nullspace(matrix, backend="packed"),
            gf2_nullspace(matrix, backend="dense"),
        )

    @given(binary_matrices, st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_solve_matches_across_backends(self, matrix, rng):
        # Build a consistent system: b = A @ x for a random x.
        x = np.array(
            [rng.randint(0, 1) for _ in range(matrix.shape[1])], dtype=np.uint8
        )
        b = gf2_matmul(matrix, x.reshape(-1, 1)).ravel()
        for backend in ("dense", "packed"):
            solution = gf2_solve(matrix, b, backend=backend)
            assert solution is not None, backend
            check = gf2_matmul(matrix, np.asarray(solution).reshape(-1, 1)).ravel()
            assert np.array_equal(check, b), backend

    @given(
        arrays(np.uint8, st.tuples(st.integers(1, 5), st.integers(1, 5)),
               elements=st.integers(0, 1)),
        st.integers(1, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_matmul_matches_across_backends(self, left, inner_cols):
        rng = np.random.default_rng(left.sum() + inner_cols)
        right = rng.integers(0, 2, size=(left.shape[1], inner_cols), dtype=np.uint8)
        assert np.array_equal(
            gf2_matmul(left, right, backend="packed"),
            gf2_matmul(left, right, backend="dense"),
        )

    @pytest.mark.parametrize("cols", [63, 64, 65, 127, 128, 129, 200])
    def test_word_boundary_widths(self, cols):
        """Widths straddling the 64-bit word boundary stay bit-identical."""
        rng = np.random.default_rng(cols)
        assert_kernels_match(rng.integers(0, 2, size=(40, cols), dtype=np.uint8))

    @pytest.mark.parametrize("rows", [65, 130])
    def test_tall_matrices_beyond_64_rows(self, rows):
        rng = np.random.default_rng(rows)
        assert_kernels_match(rng.integers(0, 2, size=(rows, 30), dtype=np.uint8))


class TestAutoSelection:
    """The reduction state is exactly the backend asked for, at any width."""

    def test_make_reduction_state_does_not_auto_upgrade(self):
        for graph in (ghz_graph(16), erdos_renyi_graph(140, seed=1)):
            state = make_reduction_state(graph, backend="packed")
            assert isinstance(state, PackedReductionState)
            dense = make_reduction_state(graph, backend="dense")
            assert isinstance(dense, ReductionState)
            assert not isinstance(dense, PackedReductionState)


class TestReductionBitIdentity:
    """greedy_reduce is bit-identical on both backends."""

    @pytest.mark.parametrize("family", sorted(ZOO_GRAPHS))
    def test_operations_and_circuits_identical(self, family):
        graph = ZOO_GRAPHS[family]()
        ref = greedy_reduce(graph, backend="dense")
        got = greedy_reduce(graph, backend="packed")
        assert got.operations == ref.operations, family
        assert got.num_emitters == ref.num_emitters, family
        assert got.to_circuit().gates == ref.to_circuit().gates, family


class TestCutRankEngineBackends:
    """CutRankEngine heights match the dense evaluation on the scenario zoo."""

    @pytest.mark.parametrize("family", sorted(ZOO_GRAPHS))
    def test_heights_identical(self, family):
        graph = ZOO_GRAPHS[family]()
        ordering = list(graph.vertices())
        engine = CutRankEngine(graph).heights(ordering)
        assert engine == height_function(graph, ordering, backend="dense"), family
        assert engine == height_function(graph, ordering, backend="packed"), family

    def test_truncate_and_reevaluate_arena(self):
        graph = watts_strogatz_graph(12, k=4, seed=2)
        ordering = list(graph.vertices())
        engine = CutRankEngine(graph)
        assert engine.heights(ordering) == height_function(
            graph, ordering, backend="dense"
        )
        # Mutate a suffix: the engine re-evaluates from the checkpoint.
        flipped = ordering[:5] + list(reversed(ordering[5:]))
        assert engine.heights(flipped) == height_function(
            graph, flipped, backend="dense"
        )

    def test_engine_beyond_word_boundary(self):
        graph = erdos_renyi_graph(70, seed=4)
        ordering = list(graph.vertices())
        assert CutRankEngine(graph).heights(ordering) == height_function(
            graph, ordering, backend="dense"
        )
