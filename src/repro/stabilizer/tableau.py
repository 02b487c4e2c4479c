"""CHP-style stabilizer tableau simulator (Aaronson & Gottesman 2004).

The :class:`StabilizerState` tracks ``2n`` Pauli rows (``n`` destabilizers and
``n`` stabilizers) over ``n`` qubits together with their signs.  Supported
operations cover everything the emitter compiler emits:

* single-qubit Cliffords: ``h``, ``s``, ``sdg``, ``x``, ``y``, ``z``,
  ``sqrt_x`` (= e^{-i pi/4 X}) and ``sqrt_x_dag``;
* two-qubit Cliffords: ``cnot`` and ``cz``;
* computational-basis measurement (``measure_z``) with either random or
  forced outcomes, and ``reset`` to ``|0>``.

All operations are exact; the class is pure Python + numpy and has no
dependency on the rest of the package beyond :mod:`repro.utils`, so it can
serve as an independent oracle in tests.

Two storage backends implement the same tableau:

* ``backend="dense"`` — ``uint8`` matrices ``x`` and ``z`` of shape
  ``(2n, n)``, with the row-multiplication sign bookkeeping done by a Python
  loop over qubits.  This is the original implementation and the oracle.
* ``backend="packed"`` — the same rows packed into ``np.uint64`` words
  (:mod:`repro.utils.gf2_packed`), with sign bookkeeping done by bitwise
  masks and popcounts.  Row multiplication drops from ``O(n)`` Python
  iterations to ``O(n / 64)`` word operations, which is what makes
  verification of multi-hundred-qubit circuits practical.

Both backends produce bit-identical tableaus, signs and measurement outcomes
for the same seed.  ``x``, ``z`` and ``r`` are always readable; on the packed
backend ``x`` and ``z`` are unpacked *snapshots* (mutate the state through
its methods, not through these views).
"""

from __future__ import annotations

import numpy as np

from repro.utils.backend import DENSE, resolve_backend
from repro.utils.gf2_packed import (
    pack_matrix,
    pauli_phase_terms,
    unpack_matrix,
    words_per_row,
)
from repro.utils.misc import make_rng

__all__ = ["StabilizerState"]

_ONE = np.uint64(1)


class StabilizerState:
    """An ``n``-qubit stabilizer state in the Aaronson–Gottesman tableau form.

    The tableau holds boolean matrices ``x`` and ``z`` of shape ``(2n, n)``
    and a sign vector ``r`` of length ``2n``.  Rows ``0..n-1`` are the
    destabilizer generators and rows ``n..2n-1`` the stabilizer generators.
    A row with bits ``(x, z)`` and sign ``r`` represents the Pauli
    ``(-1)^r * prod_j X_j^{x_j} Z_j^{z_j}`` (with the usual ``Y = iXZ``
    bookkeeping handled by the row-multiplication phase function).

    The state starts as ``|0>^{⊗n}``.
    """

    def __init__(
        self,
        num_qubits: int,
        seed: int | np.random.Generator | None = None,
        backend: str | None = None,
    ):
        if num_qubits <= 0:
            raise ValueError(f"num_qubits must be positive, got {num_qubits}")
        self.num_qubits = int(num_qubits)
        self.backend = resolve_backend(backend)
        self._packed = self.backend != DENSE
        n = self.num_qubits
        self.r = np.zeros(2 * n, dtype=np.uint8)
        if self._packed:
            n_words = words_per_row(n)
            self._num_words = n_words
            self._xw = np.zeros((2 * n, n_words), dtype=np.uint64)
            self._zw = np.zeros((2 * n, n_words), dtype=np.uint64)
            # Destabilizer i = X_i, stabilizer i = Z_i.
            for i in range(n):
                word, bit = divmod(i, 64)
                self._xw[i, word] |= _ONE << np.uint64(bit)
                self._zw[n + i, word] |= _ONE << np.uint64(bit)
        else:
            self._x = np.zeros((2 * n, n), dtype=np.uint8)
            self._z = np.zeros((2 * n, n), dtype=np.uint8)
            for i in range(n):
                self._x[i, i] = 1
                self._z[n + i, i] = 1
        self._rng = make_rng(seed)

    # ------------------------------------------------------------------ #
    # Tableau views
    # ------------------------------------------------------------------ #

    @property
    def x(self) -> np.ndarray:
        """X bits of all ``2n`` Pauli rows (a snapshot on the packed backend)."""
        if self._packed:
            return unpack_matrix(self._xw, self.num_qubits)
        return self._x

    @x.setter
    def x(self, value: np.ndarray) -> None:
        if self._packed:
            self._xw = pack_matrix(value)
        else:
            self._x = np.array(value, dtype=np.uint8, copy=True)

    @property
    def z(self) -> np.ndarray:
        """Z bits of all ``2n`` Pauli rows (a snapshot on the packed backend)."""
        if self._packed:
            return unpack_matrix(self._zw, self.num_qubits)
        return self._z

    @z.setter
    def z(self, value: np.ndarray) -> None:
        if self._packed:
            self._zw = pack_matrix(value)
        else:
            self._z = np.array(value, dtype=np.uint8, copy=True)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_graph_edges(
        cls,
        num_qubits: int,
        edges: list[tuple[int, int]],
        seed: int | np.random.Generator | None = None,
        backend: str | None = None,
    ) -> "StabilizerState":
        """Build the graph state ``|G>`` on ``num_qubits`` qubits.

        The construction is operational (H on every qubit followed by a CZ per
        edge) and therefore exact by definition of the graph state.
        """
        state = cls(num_qubits, seed=seed, backend=backend)
        for q in range(num_qubits):
            state.h(q)
        for u, v in edges:
            state.cz(u, v)
        return state

    def copy(self) -> "StabilizerState":
        """Return an independent copy sharing nothing with ``self``."""
        clone = StabilizerState(self.num_qubits, backend=self.backend)
        if self._packed:
            clone._xw = self._xw.copy()
            clone._zw = self._zw.copy()
        else:
            clone._x = self._x.copy()
            clone._z = self._z.copy()
        clone.r = self.r.copy()
        clone._rng = self._rng
        return clone

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #

    def _check_qubit(self, qubit: int) -> None:
        if not 0 <= qubit < self.num_qubits:
            raise ValueError(
                f"qubit index {qubit} out of range for {self.num_qubits} qubits"
            )

    def _x_col(self, qubit: int) -> np.ndarray:
        """X bits of column ``qubit`` over all rows, as a uint8 vector."""
        if self._packed:
            word, bit = divmod(qubit, 64)
            return ((self._xw[:, word] >> np.uint64(bit)) & _ONE).astype(np.uint8)
        return self._x[:, qubit]

    def _z_col(self, qubit: int) -> np.ndarray:
        """Z bits of column ``qubit`` over all rows, as a uint8 vector."""
        if self._packed:
            word, bit = divmod(qubit, 64)
            return ((self._zw[:, word] >> np.uint64(bit)) & _ONE).astype(np.uint8)
        return self._z[:, qubit]

    @staticmethod
    def _phase_exponent(x1: int, z1: int, x2: int, z2: int) -> int:
        """Exponent of ``i`` produced when multiplying single-qubit Paulis.

        This is the ``g`` function of Aaronson & Gottesman: the power of ``i``
        (in ``{-1, 0, 1}``) picked up when the Pauli described by ``(x1, z1)``
        is multiplied on the right by the Pauli ``(x2, z2)``.
        """
        if x1 == 0 and z1 == 0:
            return 0
        if x1 == 1 and z1 == 1:
            return z2 - x2
        if x1 == 1 and z1 == 0:
            return z2 * (2 * x2 - 1)
        return x2 * (1 - 2 * z2)

    def _rowsum(self, target: int, source: int) -> None:
        """Multiply row ``target`` by row ``source`` (in place), tracking sign."""
        n = self.num_qubits
        if self._packed:
            phase = 2 * int(self.r[target]) + 2 * int(self.r[source])
            phase += int(
                pauli_phase_terms(
                    self._xw[source], self._zw[source],
                    self._xw[target], self._zw[target],
                )
            )
            phase %= 4
            self.r[target] = 1 if phase == 2 else 0
            self._xw[target] ^= self._xw[source]
            self._zw[target] ^= self._zw[source]
            return
        phase = 2 * int(self.r[target]) + 2 * int(self.r[source])
        for j in range(n):
            phase += self._phase_exponent(
                int(self._x[source, j]),
                int(self._z[source, j]),
                int(self._x[target, j]),
                int(self._z[target, j]),
            )
        phase %= 4
        # For valid tableaus the result is always 0 or 2 (never +/- i).
        self.r[target] = 1 if phase == 2 else 0
        self._x[target] ^= self._x[source]
        self._z[target] ^= self._z[source]

    def _rowsum_many(self, targets: np.ndarray, source: int) -> None:
        """Multiply every row in ``targets`` by row ``source``; packed only."""
        phases = (
            2 * self.r[targets].astype(np.int64)
            + 2 * int(self.r[source])
            + pauli_phase_terms(
                self._xw[source], self._zw[source],
                self._xw[targets], self._zw[targets],
            )
        ) % 4
        self.r[targets] = (phases == 2).astype(np.uint8)
        self._xw[targets] ^= self._xw[source]
        self._zw[targets] ^= self._zw[source]

    def _stabilizer_product_sign(self, selected: np.ndarray) -> int:
        """Sign of the product of the selected stabilizer generators.

        ``selected`` is a 0/1 vector of length ``n``; the product multiplies
        stabilizer rows ``n + i`` for every selected ``i`` in increasing
        order, starting from the identity, and the accumulated sign bit is
        returned (the bit pattern of the product itself is implied by the
        selection and not needed by callers).
        """
        n = self.num_qubits
        if self._packed:
            # The sequential left-fold satisfies
            # ``2 * sign_final == sum_k (2 * r_k + g_k)  (mod 4)`` (every
            # intermediate product is a valid Pauli, so each partial phase is
            # 0 or 2 mod 4), which lets the whole product be evaluated in one
            # batch: prefix-XOR the selected rows to obtain each step's
            # accumulated Pauli and sum the phase terms vectorised.
            rows = np.nonzero(np.asarray(selected[:n]) != 0)[0]
            if rows.size == 0:
                return 0
            sel_x = self._xw[n + rows]
            sel_z = self._zw[n + rows]
            prefix_x = np.zeros_like(sel_x)
            prefix_z = np.zeros_like(sel_z)
            if rows.size > 1:
                np.bitwise_xor.accumulate(sel_x[:-1], axis=0, out=prefix_x[1:])
                np.bitwise_xor.accumulate(sel_z[:-1], axis=0, out=prefix_z[1:])
            phase = 2 * int(self.r[n + rows].astype(np.int64).sum()) + int(
                pauli_phase_terms(sel_x, sel_z, prefix_x, prefix_z).sum()
            )
            return 1 if phase % 4 == 2 else 0
        scratch_x = np.zeros(n, dtype=np.uint8)
        scratch_z = np.zeros(n, dtype=np.uint8)
        scratch_r = 0
        for i in range(n):
            if selected[i]:
                phase = 2 * scratch_r + 2 * int(self.r[n + i])
                for j in range(n):
                    phase += self._phase_exponent(
                        int(self._x[n + i, j]),
                        int(self._z[n + i, j]),
                        int(scratch_x[j]),
                        int(scratch_z[j]),
                    )
                phase %= 4
                scratch_r = 1 if phase == 2 else 0
                scratch_x ^= self._x[n + i]
                scratch_z ^= self._z[n + i]
        return scratch_r

    # ------------------------------------------------------------------ #
    # Single-qubit gates
    # ------------------------------------------------------------------ #

    def h(self, qubit: int) -> None:
        """Apply a Hadamard gate: X<->Z, Y->-Y."""
        self._check_qubit(qubit)
        q = qubit
        if self._packed:
            word, bit = divmod(q, 64)
            x_col = (self._xw[:, word] >> np.uint64(bit)) & _ONE
            z_col = (self._zw[:, word] >> np.uint64(bit)) & _ONE
            self.r ^= (x_col & z_col).astype(np.uint8)
            swap_mask = (x_col ^ z_col) << np.uint64(bit)
            self._xw[:, word] ^= swap_mask
            self._zw[:, word] ^= swap_mask
            return
        self.r ^= self._x[:, q] & self._z[:, q]
        self._x[:, q], self._z[:, q] = self._z[:, q].copy(), self._x[:, q].copy()

    def s(self, qubit: int) -> None:
        """Apply the phase gate S = diag(1, i): X->Y, Y->-X, Z->Z."""
        self._check_qubit(qubit)
        q = qubit
        if self._packed:
            word, bit = divmod(q, 64)
            x_col = (self._xw[:, word] >> np.uint64(bit)) & _ONE
            z_col = (self._zw[:, word] >> np.uint64(bit)) & _ONE
            self.r ^= (x_col & z_col).astype(np.uint8)
            self._zw[:, word] ^= x_col << np.uint64(bit)
            return
        self.r ^= self._x[:, q] & self._z[:, q]
        self._z[:, q] ^= self._x[:, q]

    def sdg(self, qubit: int) -> None:
        """Apply S-dagger: X->-Y, Y->X, Z->Z."""
        self._check_qubit(qubit)
        q = qubit
        if self._packed:
            word, bit = divmod(q, 64)
            x_col = (self._xw[:, word] >> np.uint64(bit)) & _ONE
            z_col = (self._zw[:, word] >> np.uint64(bit)) & _ONE
            self.r ^= (x_col & (z_col ^ _ONE)).astype(np.uint8)
            self._zw[:, word] ^= x_col << np.uint64(bit)
            return
        self.r ^= self._x[:, q] & (1 - self._z[:, q])
        self._z[:, q] ^= self._x[:, q]

    def x_gate(self, qubit: int) -> None:
        """Apply Pauli X (bit flip): Z->-Z, Y->-Y."""
        self._check_qubit(qubit)
        self.r ^= self._z_col(qubit)

    def z_gate(self, qubit: int) -> None:
        """Apply Pauli Z (phase flip): X->-X, Y->-Y."""
        self._check_qubit(qubit)
        self.r ^= self._x_col(qubit)

    def y_gate(self, qubit: int) -> None:
        """Apply Pauli Y: X->-X, Z->-Z."""
        self._check_qubit(qubit)
        self.r ^= self._x_col(qubit) ^ self._z_col(qubit)

    def sqrt_x(self, qubit: int) -> None:
        """Apply e^{-i pi/4 X} (a square root of X): Z->-Y, X->X.

        Implemented as the composition H, S, H which has the identical
        conjugation action (the two unitaries differ only by a global phase,
        which is irrelevant for stabilizer states).
        """
        self.h(qubit)
        self.s(qubit)
        self.h(qubit)

    def sqrt_x_dag(self, qubit: int) -> None:
        """Apply e^{+i pi/4 X}: Z->Y, X->X (inverse of :meth:`sqrt_x`)."""
        self.h(qubit)
        self.sdg(qubit)
        self.h(qubit)

    # ------------------------------------------------------------------ #
    # Two-qubit gates
    # ------------------------------------------------------------------ #

    def cnot(self, control: int, target: int) -> None:
        """Apply CNOT with the given control and target qubits."""
        self._check_qubit(control)
        self._check_qubit(target)
        if control == target:
            raise ValueError("control and target must differ")
        c, t = control, target
        if self._packed:
            word_c, bit_c = divmod(c, 64)
            word_t, bit_t = divmod(t, 64)
            x_c = (self._xw[:, word_c] >> np.uint64(bit_c)) & _ONE
            z_c = (self._zw[:, word_c] >> np.uint64(bit_c)) & _ONE
            x_t = (self._xw[:, word_t] >> np.uint64(bit_t)) & _ONE
            z_t = (self._zw[:, word_t] >> np.uint64(bit_t)) & _ONE
            self.r ^= (x_c & z_t & (x_t ^ z_c ^ _ONE)).astype(np.uint8)
            self._xw[:, word_t] ^= x_c << np.uint64(bit_t)
            self._zw[:, word_c] ^= z_t << np.uint64(bit_c)
            return
        self.r ^= (
            self._x[:, c]
            & self._z[:, t]
            & (self._x[:, t] ^ self._z[:, c] ^ 1)
        )
        self._x[:, t] ^= self._x[:, c]
        self._z[:, c] ^= self._z[:, t]

    def cz(self, qubit_a: int, qubit_b: int) -> None:
        """Apply a controlled-Z gate (symmetric in its arguments)."""
        self.h(qubit_b)
        self.cnot(qubit_a, qubit_b)
        self.h(qubit_b)

    # ------------------------------------------------------------------ #
    # Measurement and reset
    # ------------------------------------------------------------------ #

    def measure_z(self, qubit: int, forced_outcome: int | None = None) -> int:
        """Measure ``qubit`` in the computational (Z) basis.

        Args:
            qubit: index of the measured qubit.
            forced_outcome: when the outcome is *random* (the qubit is in a
                superposition), force it to this value (0 or 1) instead of
                sampling.  Ignored for deterministic outcomes.

        Returns:
            The measurement outcome, 0 or 1.
        """
        self._check_qubit(qubit)
        n = self.num_qubits
        q = qubit
        x_col = self._x_col(q)
        stab_rows_with_x = np.nonzero(x_col[n:])[0]
        if stab_rows_with_x.size:
            # Random outcome.
            pivot = n + int(stab_rows_with_x[0])
            if forced_outcome is None:
                outcome = int(self._rng.integers(0, 2))
            else:
                outcome = int(forced_outcome) & 1
            other_rows = np.nonzero(x_col)[0]
            other_rows = other_rows[other_rows != pivot]
            if self._packed:
                if other_rows.size:
                    self._rowsum_many(other_rows, pivot)
                # The old stabilizer becomes the destabilizer.
                self._xw[pivot - n] = self._xw[pivot]
                self._zw[pivot - n] = self._zw[pivot]
                self.r[pivot - n] = self.r[pivot]
                self._xw[pivot] = 0
                self._zw[pivot] = 0
                word, bit = divmod(q, 64)
                self._zw[pivot, word] = _ONE << np.uint64(bit)
                self.r[pivot] = outcome
                return outcome
            for row in other_rows:
                self._rowsum(int(row), pivot)
            # The old stabilizer becomes the destabilizer.
            self._x[pivot - n] = self._x[pivot].copy()
            self._z[pivot - n] = self._z[pivot].copy()
            self.r[pivot - n] = self.r[pivot]
            self._x[pivot] = 0
            self._z[pivot] = 0
            self._z[pivot, q] = 1
            self.r[pivot] = outcome
            return outcome
        # Deterministic outcome: the sign of Z_q within the stabilizer group
        # is the sign of the product of the stabilizer generators selected by
        # the destabilizer X bits of column q.
        return self._stabilizer_product_sign(x_col[:n])

    def reset(self, qubit: int) -> None:
        """Project ``qubit`` onto the Z basis and flip it to ``|0>``."""
        outcome = self.measure_z(qubit)
        if outcome == 1:
            self.x_gate(qubit)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def stabilizer_matrix(self) -> np.ndarray:
        """Return the stabilizer block as an ``(n, 2n + 1)`` binary matrix.

        Columns ``0..n-1`` are the X bits, ``n..2n-1`` the Z bits and the last
        column the sign bit.  The rows generate the stabilizer group but are
        not in canonical form; see :mod:`repro.stabilizer.canonical`.
        """
        n = self.num_qubits
        return np.concatenate(
            [self.x[n:], self.z[n:], self.r[n:].reshape(-1, 1)], axis=1
        ).astype(np.uint8)

    def packed_stabilizer_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Word-packed copies ``(x_words, z_words, signs)`` of the stabilizer block."""
        n = self.num_qubits
        if self._packed:
            return self._xw[n:].copy(), self._zw[n:].copy(), self.r[n:].copy()
        return (
            pack_matrix(self._x[n:]),
            pack_matrix(self._z[n:]),
            self.r[n:].copy(),
        )

    def contains_pauli(
        self, x_bits: np.ndarray, z_bits: np.ndarray, sign: int = 0
    ) -> bool:
        """Check whether ``(-1)^sign * P`` is in the stabilizer group.

        ``P`` is described by its X/Z bit vectors.  The test expresses the
        candidate as a GF(2) combination of the generators and then verifies
        the accumulated sign.
        """
        n = self.num_qubits
        x_bits = np.asarray(x_bits, dtype=np.uint8) % 2
        z_bits = np.asarray(z_bits, dtype=np.uint8) % 2
        if x_bits.shape != (n,) or z_bits.shape != (n,):
            raise ValueError("pauli bit vectors must have length num_qubits")
        from repro.utils.gf2 import gf2_solve

        generator_matrix = np.concatenate([self.x[n:], self.z[n:]], axis=1).T
        target = np.concatenate([x_bits, z_bits])
        combo = gf2_solve(generator_matrix, target, backend=self.backend)
        if combo is None:
            return False
        return self._stabilizer_product_sign(combo) == (int(sign) & 1)

    def qubit_is_zero(self, qubit: int) -> bool:
        """Return True when ``qubit`` is exactly in ``|0>`` (and unentangled)."""
        self._check_qubit(qubit)
        n = self.num_qubits
        x_bits = np.zeros(n, dtype=np.uint8)
        z_bits = np.zeros(n, dtype=np.uint8)
        z_bits[qubit] = 1
        return self.contains_pauli(x_bits, z_bits, sign=0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StabilizerState(num_qubits={self.num_qubits}, "
            f"backend={self.backend!r})"
        )
