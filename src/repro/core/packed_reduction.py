"""Bitset-native reduction fast path.

:class:`BitsetReductionState` answers the rule-query protocol of
:class:`repro.core.reduction.ReductionState` on one arbitrary-precision
integer adjacency row per vertex — the same representation as
:class:`repro.graphs.graph_state.PackedAdjacency` — instead of a tuple-keyed
:class:`networkx` graph.  Rows are indexed by *slot*:

* photon slot ``s`` occupies bit ``s`` (``0 <= s < photon_slots``), and the
  bitmask ``_alive`` marks the slots still in the working graph;
* emitter ``e`` occupies bit ``photon_slots + e`` (ids are allocated
  sequentially, so the row list simply grows).

Every ``photon`` argument is a slot; every emitted
:class:`~repro.core.reduction.ReductionOp` names ``_name[slot]``.  The two
concrete states differ only in that map:

* :class:`PackedReductionState` loads a whole graph, slot ``i`` is photon
  ``i`` (``_name = range(n)``) and :meth:`~PackedReductionState.finish`
  returns a :class:`~repro.core.reduction.ReductionSequence`;
* :class:`repro.core.streaming.StreamingReductionState` admits photons into
  a bounded window, names them by global vertex id and recycles a slot once
  its photon is removed.

The greedy strategy reads only emitter ids from the queries, so the slot
numbering cannot change any decision.  Every reversed operation becomes a
handful of word-run XOR/AND/mask updates (``O(n/64)`` per touched row), and
the rule queries collapse to popcounts and row comparisons:

* degree = ``row.bit_count()``;
* dangling test = ``row.bit_count() == 1``;
* twin test = integer row equality;
* photon/emitter neighbour splits = one mask and one shift.

Same tie-breaking and pool bookkeeping as the oracle mean the greedy
strategy produces **bit-identical operation sequences** — and therefore
bit-identical forward circuits — on either state.  The dict-based state
remains the oracle; ``tests/test_packed_reduction.py`` property-tests the
equivalence across the scenario zoo.  Selection follows
:mod:`repro.utils.backend` like the other GF(2) kernels:
:func:`make_reduction_state` returns the packed state on the ``packed``
backend and the networkx oracle on ``dense``.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.core.reduction import (
    ReductionOp,
    ReductionOpType,
    ReductionSequence,
    ReductionState,
)
from repro.graphs.graph_state import GraphState
from repro.utils.backend import PACKED, resolve_backend
from repro.utils.misc import iter_bits

__all__ = ["BitsetReductionState", "PackedReductionState", "make_reduction_state"]

Vertex = Hashable

# Enum members as module constants: each lookup on the enum class costs
# about a fifth of building the op that carries it.
_SWAP = ReductionOpType.SWAP
_ABSORB_LEAF = ReductionOpType.ABSORB_LEAF
_ABSORB_DANGLING = ReductionOpType.ABSORB_DANGLING
_ABSORB_TWIN = ReductionOpType.ABSORB_TWIN
_DISCONNECT = ReductionOpType.DISCONNECT
_EMIT_ISOLATED = ReductionOpType.EMIT_ISOLATED
_FREE_EMITTER = ReductionOpType.FREE_EMITTER


class BitsetReductionState:
    """Slot-indexed reduction state over integer-packed adjacency rows.

    Subclasses fill photon rows and ``_alive`` and set ``_name``; this base
    owns the rule queries, the seven reversed operations and the emitter
    pool, with the oracle's tie-breaking.  Finished operations go to
    ``self._emit`` (``operations.append`` unless a subclass rebinds it), and
    a removed photon's slot goes to :meth:`_release`.

    Free pass.  Every write that activates an emitter or can empty an
    emitter's row (acquire, absorb-leaf, absorb-dangling, disconnect)
    records the emitter in ``self._touched``.  An active emitter's row can
    only become empty through such a write, so :meth:`free_isolated_emitters`
    checks ``sorted(touched & active)`` instead of the whole pool: it frees
    the same emitters in the same ascending order as the oracle's full scan,
    at O(emitters touched since the last pass).  Swaps only add bits to
    emitter rows, and twin removal cannot empty one: every emitter that
    loses the photon's bit is also adjacent to the twin.

    Gate bound.  ``_disconnects`` counts ``DISCONNECT`` ops and ``_ee_edges``
    the emitter-emitter edges of the working graph.  Only a hand-over (swap,
    absorb-dangling) adds such edges — one per emitter neighbour of the
    photon, since the receiving emitter's row is empty or holds only the
    photon — and only a disconnect removes one, so the two counters are
    exact and :meth:`ee_gate_bound` is their sum.
    """

    def __init__(
        self,
        photon_slots: int,
        names: Sequence[int],
        emitter_budget: int | None,
    ):
        self._eoff = photon_slots
        self._photon_mask = (1 << photon_slots) - 1
        self._rows: list[int] = [0] * photon_slots
        self._alive = 0
        self._name = names
        self.emitter_budget = emitter_budget
        self.emitters_over_budget = 0
        self.free_emitters: set[int] = set()
        self.active_emitters: set[int] = set()
        self.num_emitters_allocated = 0
        self._touched: set[int] = set()
        self._disconnects = 0
        self._ee_edges = 0
        self.operations: list[ReductionOp] = []
        self._emit = self.operations.append

    def _release(self, photon: int) -> None:
        """Drop a photon whose row and neighbour bits are already cleared."""
        self._alive &= ~(1 << photon)

    def _require_photon(self, photon: int) -> None:
        if not (0 <= photon < self._eoff and (self._alive >> photon) & 1):
            raise ValueError(f"photon {photon} is not in the working graph")

    def _split(self, row: int) -> tuple[set[int], set[int]]:
        """``row``'s neighbours as (photon names, emitter ids)."""
        name = self._name
        return (
            {name[s] for s in iter_bits(row & self._photon_mask)},
            set(iter_bits(row >> self._eoff)),
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def photon_in_graph(self, photon: int) -> bool:
        return 0 <= photon < self._eoff and bool((self._alive >> photon) & 1)

    def photon_degree(self, photon: int) -> int:
        return self._rows[photon].bit_count()

    def photon_neighbors(self, photon: int) -> tuple[set[int], set[int]]:
        """Neighbours of a photon, split into (photon names, emitter ids)."""
        return self._split(self._rows[photon])

    def emitter_neighbors(self, emitter: int) -> tuple[set[int], set[int]]:
        """Neighbours of an emitter, split into (photon names, emitter ids)."""
        return self._split(self._rows[self._eoff + emitter])

    def emitter_degree(self, emitter: int) -> int:
        return self._rows[self._eoff + emitter].bit_count()

    def emitter_edge_count(self) -> int:
        """Number of emitter-emitter edges, recounted from the rows.

        Free emitters have empty rows.  :meth:`ee_gate_bound` keeps the same
        count incrementally.
        """
        rows = self._rows
        off = self._eoff
        return sum((rows[off + e] >> off).bit_count() for e in self.active_emitters) // 2

    def ee_gate_bound(self) -> int:
        """``DISCONNECT`` ops so far plus emitter-emitter edges now.

        A lower bound on the emitter-emitter gate count of any completion,
        exact once the reduction is finished; read from two counters (see
        the class docstring), in O(1).
        """
        return self._disconnects + self._ee_edges

    # ------------------------------------------------------------------ #
    # Snapshot / restore (the leaf-order search's shared-prefix walk)
    # ------------------------------------------------------------------ #

    def snapshot(self) -> tuple:
        """Everything a later :meth:`restore` needs to rewind to this point.

        Covers the rows, ``_alive``, the emitter pool, the free pass's
        touched set, the gate-bound counters and the op count — the whole
        state of a :class:`PackedReductionState`, but not a streaming
        window's slot maps, which is why the streaming state refuses it.
        """
        return (
            list(self._rows),
            self._alive,
            set(self.free_emitters),
            set(self.active_emitters),
            self.num_emitters_allocated,
            self.emitters_over_budget,
            set(self._touched),
            self._disconnects,
            self._ee_edges,
            len(self.operations),
        )

    def restore(self, snapshot: tuple) -> None:
        """Rewind to ``snapshot``; it stays valid for further restores.

        ``operations`` is truncated in place because ``_emit`` is bound to
        its ``append``.  That makes this a rewind only: ``snapshot`` must lie
        on the path to the current state, as a trie walk's ancestor does.
        """
        (
            rows,
            alive,
            free,
            active,
            allocated,
            over_budget,
            touched,
            disconnects,
            ee_edges,
            num_ops,
        ) = snapshot
        self._rows = list(rows)
        self._alive = alive
        self.free_emitters = set(free)
        self.active_emitters = set(active)
        self.num_emitters_allocated = allocated
        self.emitters_over_budget = over_budget
        self._touched = set(touched)
        self._disconnects = disconnects
        self._ee_edges = ee_edges
        del self.operations[num_ops:]

    # ------------------------------------------------------------------ #
    # Rule queries (bit-identical to the dict-based oracle)
    # ------------------------------------------------------------------ #

    def photon_neighbor_counts(self, photon: int) -> tuple[int, int]:
        """``(#photon neighbours, #emitter neighbours)`` of a photon."""
        row = self._rows[photon]
        return (row & self._photon_mask).bit_count(), (row >> self._eoff).bit_count()

    def find_dangling_emitter(self, photon: int) -> int | None:
        """Smallest emitter adjacent to ``photon`` whose only neighbour is it."""
        rows = self._rows
        off = self._eoff
        bits = rows[photon] >> off
        while bits:
            low = bits & -bits
            emitter = low.bit_length() - 1
            if rows[off + emitter].bit_count() == 1:
                return emitter
            bits ^= low
        return None

    def find_leaf_host(self, photon: int) -> int | None:
        """The emitter hosting ``photon`` when the photon has degree 1."""
        row = self._rows[photon]
        if row.bit_count() != 1:
            return None
        bit = row.bit_length() - 1
        return bit - self._eoff if bit >= self._eoff else None

    def find_twin_emitter(self, photon: int) -> int | None:
        """First active emitter (ascending id) that is a non-adjacent twin."""
        rows = self._rows
        off = self._eoff
        row = rows[photon]
        if row == 0:
            # Degenerate (never reached through the rule priority: isolated
            # photons are emitted before the twin query): fall back to the
            # oracle's full sweep over the active pool.
            candidates = iter(sorted(self.active_emitters))
        else:
            # Any twin shares the photon's entire (non-empty) neighbourhood,
            # so it is adjacent to the photon's first neighbour — scanning
            # that neighbour's emitter list in ascending order visits every
            # twin candidate with the oracle's min-id tie-breaking, at
            # O(degree) instead of O(active pool).
            first_neighbor = (row & -row).bit_length() - 1
            emitter_bits = rows[first_neighbor] >> off
            if not emitter_bits:
                return None
            candidates = iter_bits(emitter_bits)
        for emitter in candidates:
            if (row >> (off + emitter)) & 1:
                continue
            if rows[off + emitter] == row:
                return emitter
        return None

    def disconnect_absorb_candidate(self, photon: int) -> tuple[int, int] | None:
        """Best ``(cost, emitter)`` for the disconnect-absorb move, or ``None``."""
        rows = self._rows
        off = self._eoff
        photon_mask = self._photon_mask
        photon_bit = 1 << photon
        best: tuple[int, int] | None = None
        bits = rows[photon] >> off
        while bits:
            low = bits & -bits
            bits ^= low
            e = low.bit_length() - 1
            erow = rows[off + e]
            if erow & photon_mask != photon_bit:
                continue  # the emitter has other photon neighbours
            cost = (erow >> off).bit_count()
            if best is None or cost < best[0]:
                best = (cost, e)
        return best

    def liberation_candidate(self) -> tuple[int, int] | None:
        """Best ``(cost, emitter)`` freeable by disconnecting it, or ``None``."""
        off = self._eoff
        best: tuple[int, int] | None = None
        for emitter in sorted(self.active_emitters):
            erow = self._rows[off + emitter]
            if erow & self._photon_mask:
                continue
            cost = (erow >> off).bit_count()
            if best is None or cost < best[0]:
                best = (cost, emitter)
        return best

    # ------------------------------------------------------------------ #
    # Pool management and emitter-only operations
    # ------------------------------------------------------------------ #

    def acquire_free_emitter(self, preferred: int | None = None) -> int:
        """Return a free emitter id, allocating a new one if needed."""
        if preferred is not None and preferred in self.free_emitters:
            chosen = preferred
        elif self.free_emitters:
            chosen = min(self.free_emitters)
        else:
            if (
                self.emitter_budget is not None
                and self.num_emitters_allocated >= self.emitter_budget
            ):
                self.emitters_over_budget += 1
            chosen = self.num_emitters_allocated
            self.num_emitters_allocated += 1
            self._rows.extend([0] * (self._eoff + chosen + 1 - len(self._rows)))
        self.free_emitters.discard(chosen)
        self.active_emitters.add(chosen)
        self._touched.add(chosen)
        return chosen

    def _emission_source(self, emitter: int | None) -> int:
        """The free emitter an isolated photon is emitted from; stays free."""
        if emitter is not None and emitter in self.free_emitters:
            return emitter
        if self.free_emitters:
            return min(self.free_emitters)
        # Allocate a pool slot but keep it free: the emitter is only used
        # as an emission source and never becomes entangled.
        emitter_id = self.acquire_free_emitter()
        self.active_emitters.discard(emitter_id)
        self.free_emitters.add(emitter_id)
        return emitter_id

    def apply_disconnect(self, emitter_a: int, emitter_b: int, tag: str = "") -> None:
        """Remove an emitter-emitter edge (forward: one CZ gate)."""
        idx_a, idx_b = self._eoff + emitter_a, self._eoff + emitter_b
        if not (self._rows[idx_a] >> idx_b) & 1:
            raise ValueError(
                f"emitters {emitter_a} and {emitter_b} are not adjacent; nothing to disconnect"
            )
        self._rows[idx_a] &= ~(1 << idx_b)
        self._rows[idx_b] &= ~(1 << idx_a)
        self._touched.add(emitter_a)
        self._touched.add(emitter_b)
        self._disconnects += 1
        self._ee_edges -= 1
        self._emit(ReductionOp(_DISCONNECT, emitter_a, emitter_b, None, tag))

    def apply_free_emitter(self, emitter: int, tag: str = "") -> None:
        """Release an isolated active emitter back into the free pool."""
        if emitter not in self.active_emitters:
            raise ValueError(f"emitter {emitter} is not active")
        if self._rows[self._eoff + emitter]:
            raise ValueError(f"emitter {emitter} is not isolated and cannot be freed")
        self.active_emitters.discard(emitter)
        self.free_emitters.add(emitter)
        self._emit(ReductionOp(_FREE_EMITTER, emitter, None, None, tag))

    def free_isolated_emitters(self, tag: str = "") -> list[int]:
        """Free every active emitter that has become isolated; return their ids."""
        if not self._touched:
            return []
        rows = self._rows
        off = self._eoff
        freed = []
        for emitter in sorted(self._touched & self.active_emitters):
            if not rows[off + emitter]:
                self.apply_free_emitter(emitter, tag=tag)
                freed.append(emitter)
        self._touched.clear()
        return freed

    def disconnect_all_emitter_edges(self, tag: str = "") -> int:
        """Remove every remaining emitter-emitter edge in one sorted pass."""
        off = self._eoff
        pairs = [
            (emitter, emitter + 1 + shifted)
            for emitter in sorted(self.active_emitters)
            for shifted in iter_bits(self._rows[off + emitter] >> (off + emitter + 1))
        ]
        for a, b in pairs:
            self.apply_disconnect(a, b, tag=tag)
        return len(pairs)

    def release_all_emitters(self, tag: str = "") -> None:
        """The tail of ``finish``: disconnect leftover edges, free every emitter.

        A second call is a no-op, so ``finish`` may follow it.
        """
        self.disconnect_all_emitter_edges(tag=tag)
        self.free_isolated_emitters(tag=tag)
        if self.active_emitters:  # pragma: no cover - defensive
            raise RuntimeError(f"emitters left active after finish: {self.active_emitters}")

    # ------------------------------------------------------------------ #
    # Reversed photon operations
    # ------------------------------------------------------------------ #

    def _hand_over(self, photon: int, emitter_index: int, row: int) -> None:
        """Give row ``emitter_index`` the neighbours ``row`` and detach ``photon``."""
        rows = self._rows
        keep = ~(1 << photon)
        emitter_bit = 1 << emitter_index
        rows[emitter_index] = row
        self._ee_edges += (row >> self._eoff).bit_count()
        bits = row
        while bits:
            low = bits & -bits
            j = low.bit_length() - 1
            rows[j] = (rows[j] & keep) | emitter_bit
            bits ^= low
        rows[photon] = 0

    def apply_swap(self, photon: int, emitter: int | None = None, tag: str = "") -> int:
        """Replace ``photon`` by a free emitter; returns the emitter id used."""
        self._require_photon(photon)
        emitter_id = self.acquire_free_emitter(preferred=emitter)
        self._hand_over(photon, self._eoff + emitter_id, self._rows[photon])
        self._emit(ReductionOp(_SWAP, emitter_id, None, self._name[photon], tag))
        self._release(photon)
        return emitter_id

    def apply_absorb_leaf(self, emitter: int, photon: int, tag: str = "") -> None:
        """Absorb a photon that dangles on ``emitter`` (degree-1 photon)."""
        self._require_photon(photon)
        eidx = self._eoff + emitter
        if self._rows[photon] != 1 << eidx:
            raise ValueError(
                f"photon {self._name[photon]} is not dangling on emitter {emitter}; "
                "ABSORB_LEAF precondition violated"
            )
        self._rows[eidx] &= ~(1 << photon)
        self._rows[photon] = 0
        self._touched.add(emitter)
        self._emit(ReductionOp(_ABSORB_LEAF, emitter, None, self._name[photon], tag))
        self._release(photon)

    def apply_absorb_dangling(self, emitter: int, photon: int, tag: str = "") -> None:
        """Absorb ``photon`` into a dangling emitter that is attached to it."""
        self._require_photon(photon)
        eidx = self._eoff + emitter
        if self._rows[eidx] != 1 << photon:
            raise ValueError(
                f"emitter {emitter} is not dangling on photon {self._name[photon]}; "
                "ABSORB_DANGLING precondition violated"
            )
        self._hand_over(photon, eidx, self._rows[photon] & ~(1 << eidx))
        self._touched.add(emitter)
        self._emit(ReductionOp(_ABSORB_DANGLING, emitter, None, self._name[photon], tag))
        self._release(photon)

    def apply_absorb_twin(self, emitter: int, photon: int, tag: str = "") -> None:
        """Absorb ``photon`` when it has exactly the emitter's neighbourhood."""
        self._require_photon(photon)
        eidx = self._eoff + emitter
        row = self._rows[photon]
        if (row >> eidx) & 1:
            raise ValueError(
                f"photon {self._name[photon]} and emitter {emitter} are adjacent; "
                "ABSORB_TWIN requires non-adjacent twins"
            )
        if row != self._rows[eidx]:
            raise ValueError(
                f"photon {self._name[photon]} and emitter {emitter} are not twins; "
                "ABSORB_TWIN precondition violated"
            )
        photon_bit = 1 << photon
        for j in iter_bits(row):
            self._rows[j] &= ~photon_bit
        self._rows[photon] = 0
        self._emit(ReductionOp(_ABSORB_TWIN, emitter, None, self._name[photon], tag))
        self._release(photon)

    def apply_emit_isolated(self, photon: int, emitter: int | None = None, tag: str = "") -> int:
        """Remove an isolated photon (forward: emit an unentangled photon)."""
        self._require_photon(photon)
        if self._rows[photon]:
            raise ValueError(f"photon {self._name[photon]} is not isolated")
        emitter_id = self._emission_source(emitter)
        self._emit(ReductionOp(_EMIT_ISOLATED, emitter_id, None, self._name[photon], tag))
        self._release(photon)
        return emitter_id


class PackedReductionState(BitsetReductionState):
    """Whole-graph bitset state: a drop-in for the dict-based oracle.

    The public surface mirrors :class:`repro.core.reduction.ReductionState`
    exactly (construction, queries, the seven reversed operations, pool
    bookkeeping and :meth:`finish`); only the storage differs.  Slot ``i`` is
    photon ``i``, so photon indices are used unchanged.
    """

    def __init__(
        self,
        target_graph: GraphState,
        emitter_budget: int | None = None,
        photon_order: Sequence[Vertex] | None = None,
    ):
        if target_graph.num_vertices == 0:
            raise ValueError("cannot reduce an empty target graph")
        vertices = list(photon_order) if photon_order is not None else target_graph.vertices()
        if (
            set(vertices) != set(target_graph.vertices())
            or len(vertices) != target_graph.num_vertices
        ):
            raise ValueError("photon_order must be a permutation of the target vertices")
        n = len(vertices)
        super().__init__(n, range(n), emitter_budget)
        self.photon_of_vertex: dict[Vertex, int] = {v: i for i, v in enumerate(vertices)}
        self.num_photons = n
        self._alive = self._photon_mask
        packed = target_graph.packed_adjacency()
        if photon_order is None or packed.index == self.photon_of_vertex:
            # The graph's cached packed rows already follow insertion order —
            # exactly this state's photon indexing.  Order searches build
            # many states over one subgraph; they all share the one snapshot.
            self._rows = list(packed.rows)
        else:
            for u, v in target_graph.edges():
                i, j = self.photon_of_vertex[u], self.photon_of_vertex[v]
                self._rows[i] |= 1 << j
                self._rows[j] |= 1 << i

    def remaining_photons(self) -> list[int]:
        """Photon indices still present in the working graph."""
        return list(iter_bits(self._alive))

    def is_done(self) -> bool:
        """True when every photon has been removed and every emitter is free."""
        return not self._alive and not self.active_emitters

    def finish(self, tag: str = "") -> ReductionSequence:
        """Disconnect leftover emitter edges, free emitters, return the sequence."""
        if self._alive:
            raise RuntimeError(
                "cannot finish the reduction: photons remain in the working graph "
                f"({self.remaining_photons()})"
            )
        self.release_all_emitters(tag)
        return ReductionSequence(
            operations=list(self.operations),
            num_photons=self.num_photons,
            num_emitters=max(self.num_emitters_allocated, 1),
            photon_of_vertex=dict(self.photon_of_vertex),
            emitters_over_budget=self.emitters_over_budget,
        )


def make_reduction_state(
    target_graph: GraphState,
    emitter_budget: int | None = None,
    photon_order: Sequence[Vertex] | None = None,
    backend: str | None = None,
) -> "ReductionState | PackedReductionState":
    """Build a reduction state on the selected GF(2) backend.

    ``backend=None`` resolves to the process default
    (:func:`repro.utils.backend.get_default_backend`): ``packed`` returns the
    bitset-native :class:`PackedReductionState` and ``dense`` the
    networkx-backed :class:`~repro.core.reduction.ReductionState` oracle.
    Both produce bit-identical operation sequences for identical inputs.
    """
    cls = PackedReductionState if resolve_backend(backend) == PACKED else ReductionState
    return cls(
        target_graph,
        emitter_budget=emitter_budget,
        photon_order=photon_order,
    )
