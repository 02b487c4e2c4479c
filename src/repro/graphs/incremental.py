"""Incremental cut-rank evaluation (:class:`CutRankEngine`).

The dense path of :mod:`repro.graphs.entanglement` evaluates the height
function of an emission ordering by solving one from-scratch GF(2) rank per
prefix: ``O(n)`` rank solves, ``O(n^4 / w)`` per ordering.  This module
maintains the rank *online* so the whole height function falls out of a
single ``O(n^3 / w)`` sweep, and an ordering search that mutates a suffix
pays only for the changed positions.

The trick is to evaluate the cut rank through the stabilizer picture instead
of the bipartite adjacency block.  For a graph state ``|G>`` on vertices
``V`` the stabilizer generator of vertex ``v`` is ``g_v = X_v prod_{w in
N(v)} Z_w``.  The entanglement entropy of a region ``B`` is ``|B| - dim
S_B`` where ``S_B`` is the subgroup of the stabilizer group supported inside
``B``; restriction to the complement qubits is linear with kernel ``S_B``,
so for the suffix region ``B = V \\ A_i`` of a prefix ``A_i = {p_1..p_i}``:

``dim S_B = n - rank(G[:, columns of qubits in A_i])``

and, using entropy symmetry of pure states (``S(A_i) = S(B)``),

``h(i) = cut_rank(A_i) = rank(G[:, columns of A_i qubits]) - i``.

The X column of qubit ``q`` is the indicator vector ``e_q`` (only ``g_q``
has X on ``q``) and the Z column is ``q``'s adjacency row (``g_v`` has Z on
``q`` iff ``v in N(q)``).  Appending photon ``q`` to the prefix therefore
just inserts the two vectors ``e_q`` and ``adj(q)`` into a growing GF(2)
echelon basis — ``O(n^2 / w)`` with integer-packed rows — and the engine
state after ``i`` appends depends only on the prefix, which is what makes
per-position checkpoints (and thus suffix re-evaluation in ordering
searches) possible.

Rows are Python integers in the :class:`repro.graphs.graph_state.
PackedAdjacency` convention; the elimination kernel is shared with
:mod:`repro.utils.gf2_packed`.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.graphs.graph_state import GraphState, PackedAdjacency

__all__ = ["CutRankEngine", "incremental_height_function"]

Vertex = Hashable


class CutRankEngine:
    """Online cut-rank / height-function evaluator for one graph.

    The engine packs the graph's adjacency once (reusing the
    :meth:`~repro.graphs.graph_state.GraphState.packed_adjacency` cache) and
    then supports:

    * :meth:`append` — extend the current prefix by one photon and get the
      new cut rank in ``O(n^2 / w)``;
    * :meth:`truncate` — roll the prefix back to an earlier checkpoint, so a
      search can mutate an ordering suffix and re-evaluate only from the
      first changed position;
    * :meth:`heights` / :meth:`peak` — evaluate a full ordering, reusing the
      longest common prefix with the previously evaluated one.

    The engine snapshots the graph at construction time: mutate the graph
    and you must build a new engine (``GraphState`` mutators invalidate the
    shared adjacency cache, so a stale engine cannot silently alias fresh
    queries).

    Parameters
    ----------
    graph : GraphState
        The graph state whose cut ranks are queried.
    checkpoint : bool, optional
        Keep per-position snapshots of the echelon basis (default).  Disable
        for one-shot sweeps where :meth:`truncate` is never needed; the
        engine then only supports truncating to the current length or 0.
    """

    def __init__(self, graph: GraphState, checkpoint: bool = True):
        adjacency: PackedAdjacency = graph.packed_adjacency()
        self._index = adjacency.index
        self._rows = adjacency.rows
        self._num_vertices = adjacency.num_vertices
        self._checkpoint = checkpoint
        self._vertex_set = frozenset(self._index)
        self.reset()

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #

    @property
    def num_vertices(self) -> int:
        """Number of vertices of the underlying graph."""
        return self._num_vertices

    @property
    def checkpointing(self) -> bool:
        """Whether per-position snapshots (and thus :meth:`truncate`) exist."""
        return self._checkpoint

    @property
    def position(self) -> int:
        """Length of the current prefix."""
        return len(self._prefix)

    @property
    def prefix(self) -> list[Vertex]:
        """The photons appended so far, in order."""
        return list(self._prefix)

    @property
    def heights_so_far(self) -> list[int]:
        """``[h(0), ..., h(position)]`` for the current prefix."""
        return list(self._heights)

    def reset(self) -> None:
        """Clear the prefix (the echelon basis becomes empty)."""
        self._basis: dict[int, int] = {}
        self._rank = 0
        self._prefix: list[Vertex] = []
        self._used: set[Vertex] = set()
        self._heights: list[int] = [0]
        self._snapshots: list[tuple[int, dict[int, int]]] = [(0, {})]

    # ------------------------------------------------------------------ #
    # Incremental updates
    # ------------------------------------------------------------------ #

    def _insert(self, row: int) -> None:
        """Insert one packed vector into the echelon basis."""
        basis = self._basis
        while row:
            high = row.bit_length() - 1
            pivot = basis.get(high)
            if pivot is None:
                basis[high] = row
                self._rank += 1
                return
            row ^= pivot

    def append(self, vertex: Vertex) -> int:
        """Append ``vertex`` to the prefix; return the new cut rank ``h(i)``.

        Raises
        ------
        KeyError
            If ``vertex`` is not in the graph.
        ValueError
            If ``vertex`` is already part of the prefix.
        """
        index = self._index.get(vertex)
        if index is None:
            raise KeyError(f"vertex {vertex!r} not in graph")
        if vertex in self._used:
            raise ValueError(f"vertex {vertex!r} already in the prefix")
        self._insert(1 << index)
        self._insert(self._rows[index])
        self._prefix.append(vertex)
        self._used.add(vertex)
        height = self._rank - len(self._prefix)
        self._heights.append(height)
        if self._checkpoint:
            self._snapshots.append((self._rank, dict(self._basis)))
        return height

    def truncate(self, length: int) -> None:
        """Roll the prefix back to ``length`` photons (a stored checkpoint).

        With ``checkpoint=False`` only ``length == position`` (no-op) and
        ``length == 0`` (reset) are supported.
        """
        if not 0 <= length <= len(self._prefix):
            raise ValueError(
                f"cannot truncate to length {length} (prefix has "
                f"{len(self._prefix)} photons)"
            )
        if length == len(self._prefix):
            return
        if length == 0:
            self.reset()
            return
        if not self._checkpoint:
            raise ValueError(
                "this engine was built with checkpoint=False; only full reset "
                "is supported"
            )
        for vertex in self._prefix[length:]:
            self._used.discard(vertex)
        del self._prefix[length:]
        del self._heights[length + 1 :]
        del self._snapshots[length + 1 :]
        rank, basis = self._snapshots[length]
        self._rank = rank
        self._basis = dict(basis)

    # ------------------------------------------------------------------ #
    # Whole-ordering evaluation
    # ------------------------------------------------------------------ #

    def _common_prefix_length(self, ordering: Sequence[Vertex]) -> int:
        limit = min(len(self._prefix), len(ordering))
        for i in range(limit):
            if self._prefix[i] != ordering[i]:
                return i
        return limit

    def heights(self, ordering: Sequence[Vertex]) -> list[int]:
        """The full height function of ``ordering`` (length ``n + 1``).

        ``ordering`` must be a permutation of the graph's vertices.  When the
        engine was built with checkpoints, evaluation restarts from the
        longest common prefix with the previously evaluated ordering, so an
        ordering search that mutates a suffix pays only for the tail.
        """
        ordering = list(ordering)
        if len(ordering) != self._num_vertices or set(ordering) != self._vertex_set:
            raise ValueError("ordering must be a permutation of the graph's vertices")
        start = self._common_prefix_length(ordering) if self._checkpoint else 0
        self.truncate(start)
        for vertex in ordering[start:]:
            self.append(vertex)
        return list(self._heights)

    def peak(self, ordering: Sequence[Vertex]) -> int:
        """Maximum of the height function over ``ordering``."""
        return max(self.heights(ordering))


def incremental_height_function(
    graph: GraphState, ordering: Sequence[Vertex] | None = None
) -> list[int]:
    """Height function of ``ordering`` via a one-shot :class:`CutRankEngine`.

    Convenience wrapper used by the engine-backed fast path of
    :func:`repro.graphs.entanglement.height_function`; snapshots are disabled
    because the sweep is evaluated exactly once.
    """
    if ordering is None:
        ordering = graph.vertices()
    return CutRankEngine(graph, checkpoint=False).heights(ordering)
