"""Linear algebra over GF(2) with a dense/packed backend switch.

The compiler needs a handful of exact binary-field operations:

* the *cut rank* (connectivity function) of a graph bipartition, which equals
  the bipartite entanglement entropy of the corresponding graph state and
  therefore the minimal number of emitters required at a given point of the
  emission schedule (Li, Economou & Barnes, npj QI 2022);
* Gaussian elimination of stabilizer check matrices to compute canonical
  generator sets and to decide exact stabilizer-state equality.

Everything here operates on ``numpy`` arrays with ``dtype=np.uint8`` holding
0/1 entries.  Inputs are copied; functions never mutate their arguments.

Two interchangeable implementations back the public functions:

* ``backend="dense"`` — the straightforward ``uint8`` Gaussian elimination
  defined in this module, kept as the oracle;
* ``backend="packed"`` — the ``np.uint64`` word-packed kernels of
  :mod:`repro.utils.gf2_packed`, bit-exact with the dense path and several
  times faster from a few hundred columns on.

``backend=None`` (the default everywhere) defers to
:func:`repro.utils.backend.get_default_backend`; an explicit ``backend=``
argument always runs that backend's kernel.
:func:`gf2_gaussian_elimination` is the one dense-only exception: its
non-reduced echelon output depends on the elimination order and is therefore
not canonical, so only the dense implementation defines it.
"""

from __future__ import annotations

import numpy as np

from repro.utils.backend import DENSE, PACKED, resolve_backend
from repro.utils import gf2_packed

__all__ = [
    "gf2_gaussian_elimination",
    "gf2_matmul",
    "gf2_nullspace",
    "gf2_rank",
    "gf2_rref",
    "gf2_solve",
]


def _as_gf2(matrix: np.ndarray) -> np.ndarray:
    """Return a uint8 copy of ``matrix`` reduced modulo 2.

    Raises:
        ValueError: if ``matrix`` is not two-dimensional.
    """
    arr = np.array(matrix, dtype=np.int64, copy=True)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    return (arr % 2).astype(np.uint8)


def gf2_gaussian_elimination(matrix: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Row-reduce ``matrix`` over GF(2) to row echelon form.

    Args:
        matrix: a 2-D array of 0/1 entries (any integer dtype accepted).

    Returns:
        A pair ``(echelon, pivot_columns)`` where ``echelon`` is the row
        echelon form (not necessarily *reduced*) and ``pivot_columns`` lists
        the pivot column index of each non-zero row, in order.
    """
    mat = _as_gf2(matrix)
    n_rows, n_cols = mat.shape
    pivot_cols: list[int] = []
    row = 0
    for col in range(n_cols):
        if row >= n_rows:
            break
        pivot_candidates = np.nonzero(mat[row:, col])[0]
        if pivot_candidates.size == 0:
            continue
        pivot = row + int(pivot_candidates[0])
        if pivot != row:
            mat[[row, pivot]] = mat[[pivot, row]]
        below = np.nonzero(mat[row + 1:, col])[0]
        if below.size:
            mat[row + 1 + below] ^= mat[row]
        pivot_cols.append(col)
        row += 1
    return mat, pivot_cols


def gf2_rref(
    matrix: np.ndarray, backend: str | None = None
) -> tuple[np.ndarray, list[int]]:
    """Compute the *reduced* row echelon form of ``matrix`` over GF(2).

    Returns:
        ``(rref, pivot_columns)``; rows above each pivot are cleared as well,
        so the result is unique for a given row space.
    """
    chosen = resolve_backend(backend)
    if chosen == PACKED:
        return gf2_packed.packed_gf2_rref(matrix)
    mat, pivot_cols = gf2_gaussian_elimination(matrix)
    for row_index, col in enumerate(pivot_cols):
        above = np.nonzero(mat[:row_index, col])[0]
        if above.size:
            mat[above] ^= mat[row_index]
    return mat, pivot_cols


def gf2_rank(matrix: np.ndarray, backend: str | None = None) -> int:
    """Return the rank of ``matrix`` over GF(2).

    The rank of the adjacency submatrix between a vertex subset ``A`` and its
    complement is the *cut rank* of ``A`` and equals the bipartite
    entanglement entropy (in bits) of the graph state across that cut.
    """
    chosen = resolve_backend(backend)
    if chosen == PACKED:
        return gf2_packed.packed_gf2_rank(matrix)
    mat = _as_gf2(matrix)
    if mat.size == 0:
        return 0
    _, pivots = gf2_gaussian_elimination(mat)
    return len(pivots)


def gf2_matmul(
    left: np.ndarray, right: np.ndarray, backend: str | None = None
) -> np.ndarray:
    """Multiply two GF(2) matrices and reduce the product modulo 2."""
    chosen = resolve_backend(backend)
    if chosen == PACKED:
        return gf2_packed.packed_gf2_matmul(left, right)
    left_m = _as_gf2(left)
    right_m = _as_gf2(right)
    if left_m.shape[1] != right_m.shape[0]:
        raise ValueError(
            f"inner dimensions do not match: {left_m.shape} x {right_m.shape}"
        )
    product = (left_m.astype(np.int64) @ right_m.astype(np.int64)) % 2
    return product.astype(np.uint8)


def gf2_solve(
    matrix: np.ndarray, rhs: np.ndarray, backend: str | None = None
) -> np.ndarray | None:
    """Solve ``matrix @ x = rhs`` over GF(2).

    Args:
        matrix: coefficient matrix of shape ``(m, n)``.
        rhs: right-hand-side vector of length ``m``.
        backend: GF(2) backend override (``None`` = process default).

    Returns:
        One particular solution vector of length ``n`` (dtype uint8), or
        ``None`` when the system is inconsistent.
    """
    chosen = resolve_backend(backend)
    if chosen == PACKED:
        return gf2_packed.packed_gf2_solve(matrix, rhs)
    mat = _as_gf2(matrix)
    vec = np.array(rhs, dtype=np.int64, copy=True).reshape(-1, 1) % 2
    if vec.shape[0] != mat.shape[0]:
        raise ValueError("rhs length does not match the number of rows")
    augmented = np.concatenate([mat, vec.astype(np.uint8)], axis=1)
    reduced, pivots = gf2_rref(augmented, backend=DENSE)
    n_cols = mat.shape[1]
    # Inconsistent if a pivot lands in the augmented column.
    if n_cols in pivots:
        return None
    solution = np.zeros(n_cols, dtype=np.uint8)
    for row_index, col in enumerate(pivots):
        solution[col] = reduced[row_index, n_cols]
    return solution


def gf2_nullspace(matrix: np.ndarray, backend: str | None = None) -> np.ndarray:
    """Return a basis of the right nullspace of ``matrix`` over GF(2).

    Returns:
        An array of shape ``(k, n)`` whose rows form a basis of
        ``{x : matrix @ x = 0}``.  ``k`` may be zero.
    """
    chosen = resolve_backend(backend)
    if chosen == PACKED:
        return gf2_packed.packed_gf2_nullspace(matrix)
    mat = _as_gf2(matrix)
    n_cols = mat.shape[1]
    reduced, pivots = gf2_rref(mat, backend=DENSE)
    free_cols = [c for c in range(n_cols) if c not in pivots]
    basis_rows = []
    for free in free_cols:
        vec = np.zeros(n_cols, dtype=np.uint8)
        vec[free] = 1
        for row_index, pivot_col in enumerate(pivots):
            if reduced[row_index, free]:
                vec[pivot_col] = 1
        basis_rows.append(vec)
    if not basis_rows:
        return np.zeros((0, n_cols), dtype=np.uint8)
    return np.stack(basis_rows, axis=0)
