"""Streaming partition-compile for very large graph families.

The whole-graph compilers materialise the target state (networkx graph,
packed adjacency, reduction rows) before reducing it, so peak memory grows
with ``n`` even though the reduction itself only ever inspects one photon's
neighbourhood plus the emitter pool.  This module exploits that locality:
:func:`compile_stream` walks a lazy generator spec
(:mod:`repro.graphs.lazy`) region by region, keeps only a bounded *window*
of the graph alive, and streams the reduction operations to a sink instead
of accumulating them — peak memory is bounded by two adjacent regions plus
the emitter pool (the *frontier*), not by ``n``.

Correctness argument.  The greedy rule engine
(:func:`repro.core.strategies.reduce_photon`) queries only

* the photon's own adjacency row (degree, neighbour split, leaf test),
* the rows of emitters (all of which the window tracks permanently), and
* the emitter pool bookkeeping,

so a windowed state answers every query identically to the whole-graph state
**provided all neighbours of the photon being reduced are admitted**.  The
driver admits regions in descending order and reduces region ``j + 1`` only
after region ``j`` is present; the specs' region locality contract (edges
span at most one region, or reach a pinned hub admitted up front) then
guarantees the proviso.  Reduced photons are fully detached from the working
graph, so their window slots are recycled.  Because the processing order
(descending vertex id: region ``J-1`` down to region ``0``, pinned hubs
last) equals the whole-graph default, the streamed operation sequence is
**bit-identical** to ``greedy_reduce(spec.materialize())`` — which is
exactly what the oracle tests assert at small sizes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.core.packed_reduction import BitsetEmitterPool
from repro.core.reduction import ReductionOp, ReductionOpType
from repro.core.strategies import GreedyReductionStrategy, reduce_photon
from repro.utils.misc import iter_bits

__all__ = ["StreamCompileResult", "StreamingReductionState", "compile_stream"]

OpSink = Callable[[ReductionOp], None]


class StreamingReductionState(BitsetEmitterPool):
    """Windowed reduction state: bounded slots, global photon ids, op sink.

    Photons are *admitted* into one of ``window_capacity`` slots (bit ``s``
    for slot ``s``, emitter ``e`` at bit ``window_capacity + e``) and their
    slots are recycled once the reduction detaches them.  The rule-query
    protocol is the same as :class:`repro.core.reduction.ReductionState` —
    identical tie-breaking, identical pool bookkeeping — except that photons
    are named by their **global** vertex id (the admitted window translates
    to slots internally), so emitted operations carry the same ids as a
    whole-graph reduction over the same processing order.

    Operations go to ``op_sink`` when given (constant memory); otherwise they
    accumulate in ``self.operations`` for the small-size oracle tests.  The
    emitter pool, emitter-only operations and the free pass come from
    :class:`~repro.core.packed_reduction.BitsetEmitterPool`.
    """

    def __init__(
        self,
        window_capacity: int,
        emitter_budget: int | None = None,
        strict_budget: bool = False,
        op_sink: OpSink | None = None,
    ):
        if window_capacity < 1:
            raise ValueError(f"window_capacity must be >= 1, got {window_capacity}")
        self._cap = int(window_capacity)
        super().__init__(self._cap, emitter_budget, strict_budget)
        self._rows: list[int] = [0] * self._cap
        self._slot_of: dict[int, int] = {}
        self._global_of: list[int | None] = [None] * self._cap
        self._free_slots = list(range(self._cap - 1, -1, -1))
        self.peak_window_photons = 0
        self.photons_admitted = 0
        self.photons_reduced = 0
        if op_sink is not None:
            self._emit = op_sink

    # ------------------------------------------------------------------ #
    # Window management
    # ------------------------------------------------------------------ #

    @property
    def window_capacity(self) -> int:
        return self._cap

    @property
    def window_size(self) -> int:
        """Photons currently admitted (excluding emitters)."""
        return len(self._slot_of)

    def admit_photon(self, photon: int) -> None:
        """Bring ``photon`` (a global vertex id) into the window, degree 0."""
        if photon in self._slot_of:
            raise ValueError(f"photon {photon} is already admitted")
        if not self._free_slots:
            raise RuntimeError(
                f"streaming window capacity {self._cap} exhausted; the spec's "
                "region locality contract is violated or the window is too small"
            )
        slot = self._free_slots.pop()
        self._rows[slot] = 0
        self._slot_of[photon] = slot
        self._global_of[slot] = photon
        self.photons_admitted += 1
        if len(self._slot_of) > self.peak_window_photons:
            self.peak_window_photons = len(self._slot_of)

    def add_edge(self, u: int, v: int) -> None:
        """Connect two admitted photons (global vertex ids)."""
        su, sv = self._slot_of[u], self._slot_of[v]
        if su == sv:
            raise ValueError(f"self-loop on photon {u}")
        self._rows[su] |= 1 << sv
        self._rows[sv] |= 1 << su

    def _release(self, photon: int) -> None:
        """Recycle the slot of a fully-detached photon."""
        slot = self._slot_of.pop(photon)
        self._rows[slot] = 0
        self._global_of[slot] = None
        self._free_slots.append(slot)
        self.photons_reduced += 1

    # ------------------------------------------------------------------ #
    # Rule-query protocol (identical tie-breaking to the oracle)
    # ------------------------------------------------------------------ #

    def photon_in_graph(self, photon: int) -> bool:
        return photon in self._slot_of

    def photon_degree(self, photon: int) -> int:
        return self._rows[self._slot_of[photon]].bit_count()

    def photon_neighbors(self, photon: int) -> tuple[set[int], set[int]]:
        """Neighbours of a photon, split into (global photon ids, emitter ids)."""
        row = self._rows[self._slot_of[photon]]
        return (
            {self._global_of[s] for s in iter_bits(row & self._photon_mask)},
            set(iter_bits(row >> self._cap)),
        )

    def emitter_neighbors(self, emitter: int) -> tuple[set[int], set[int]]:
        """Neighbours of an emitter, split into (global photon ids, emitter ids)."""
        row = self._rows[self._eidx(emitter)]
        return (
            {self._global_of[s] for s in iter_bits(row & self._photon_mask)},
            set(iter_bits(row >> self._cap)),
        )

    def photon_neighbor_counts(self, photon: int) -> tuple[int, int]:
        row = self._rows[self._slot_of[photon]]
        return (row & self._photon_mask).bit_count(), (row >> self._cap).bit_count()

    def find_dangling_emitter(self, photon: int) -> int | None:
        for bit in iter_bits(self._rows[self._slot_of[photon]] >> self._cap):
            if self._rows[self._cap + bit].bit_count() == 1:
                return bit
        return None

    def find_leaf_host(self, photon: int) -> int | None:
        row = self._rows[self._slot_of[photon]]
        if row.bit_count() != 1:
            return None
        bit = row.bit_length() - 1
        return bit - self._cap if bit >= self._cap else None

    def find_twin_emitter(self, photon: int) -> int | None:
        return self._twin_of_row(self._rows[self._slot_of[photon]])

    def disconnect_absorb_candidate(self, photon: int) -> tuple[int, int] | None:
        slot = self._slot_of[photon]
        photon_bit = 1 << slot
        best: tuple[int, int] | None = None
        for e in iter_bits(self._rows[slot] >> self._cap):
            erow = self._rows[self._cap + e]
            if erow & self._photon_mask != photon_bit:
                continue
            cost = (erow >> self._cap).bit_count()
            if best is None or cost < best[0]:
                best = (cost, e)
        return best

    # ------------------------------------------------------------------ #
    # Reversed operations (slot-space rows, global-id operations)
    # ------------------------------------------------------------------ #

    def _replace_slot_by_emitter(self, slot: int, emitter_index: int) -> None:
        row = self._rows[slot]
        slot_bit = 1 << slot
        emitter_bit = 1 << emitter_index
        self._rows[emitter_index] = row
        for j in iter_bits(row):
            self._rows[j] = (self._rows[j] & ~slot_bit) | emitter_bit
        self._rows[slot] = 0

    def apply_swap(self, photon: int, emitter: int | None = None, tag: str = "") -> int:
        if photon not in self._slot_of:
            raise ValueError(f"photon {photon} is not in the working graph")
        emitter_id = self.acquire_free_emitter(preferred=emitter)
        self._replace_slot_by_emitter(self._slot_of[photon], self._eidx(emitter_id))
        self._release(photon)
        self._emit(
            ReductionOp(ReductionOpType.SWAP, emitter=emitter_id, photon=photon, tag=tag)
        )
        return emitter_id

    def apply_absorb_leaf(self, emitter: int, photon: int, tag: str = "") -> None:
        if photon not in self._slot_of:
            raise ValueError(f"photon {photon} is not in the working graph")
        slot = self._slot_of[photon]
        eidx = self._eidx(emitter)
        if self._rows[slot] != 1 << eidx:
            raise ValueError(
                f"photon {photon} is not dangling on emitter {emitter}; "
                "ABSORB_LEAF precondition violated"
            )
        self._rows[eidx] &= ~(1 << slot)
        self._rows[slot] = 0
        self._release(photon)
        self._touched.add(emitter)
        self._emit(
            ReductionOp(ReductionOpType.ABSORB_LEAF, emitter=emitter, photon=photon, tag=tag)
        )

    def apply_absorb_dangling(self, emitter: int, photon: int, tag: str = "") -> None:
        if photon not in self._slot_of:
            raise ValueError(f"photon {photon} is not in the working graph")
        slot = self._slot_of[photon]
        eidx = self._eidx(emitter)
        if self._rows[eidx] != 1 << slot:
            raise ValueError(
                f"emitter {emitter} is not dangling on photon {photon}; "
                "ABSORB_DANGLING precondition violated"
            )
        slot_bit = 1 << slot
        emitter_bit = 1 << eidx
        inherited = self._rows[slot] & ~emitter_bit
        self._rows[eidx] = inherited
        for j in iter_bits(inherited):
            self._rows[j] = (self._rows[j] & ~slot_bit) | emitter_bit
        self._rows[slot] = 0
        self._release(photon)
        self._touched.add(emitter)
        self._emit(
            ReductionOp(
                ReductionOpType.ABSORB_DANGLING, emitter=emitter, photon=photon, tag=tag
            )
        )

    def apply_absorb_twin(self, emitter: int, photon: int, tag: str = "") -> None:
        if photon not in self._slot_of:
            raise ValueError(f"photon {photon} is not in the working graph")
        slot = self._slot_of[photon]
        eidx = self._eidx(emitter)
        if (self._rows[slot] >> eidx) & 1:
            raise ValueError(
                f"photon {photon} and emitter {emitter} are adjacent; "
                "ABSORB_TWIN requires non-adjacent twins"
            )
        if self._rows[slot] != self._rows[eidx]:
            raise ValueError(
                f"photon {photon} and emitter {emitter} are not twins; "
                "ABSORB_TWIN precondition violated"
            )
        slot_bit = 1 << slot
        for j in iter_bits(self._rows[slot]):
            self._rows[j] &= ~slot_bit
        self._rows[slot] = 0
        self._release(photon)
        self._emit(
            ReductionOp(ReductionOpType.ABSORB_TWIN, emitter=emitter, photon=photon, tag=tag)
        )

    def apply_emit_isolated(self, photon: int, emitter: int | None = None, tag: str = "") -> int:
        if photon not in self._slot_of:
            raise ValueError(f"photon {photon} is not in the working graph")
        if self._rows[self._slot_of[photon]]:
            raise ValueError(f"photon {photon} is not isolated")
        emitter_id = self._emission_source(emitter)
        self._release(photon)
        self._emit(
            ReductionOp(
                ReductionOpType.EMIT_ISOLATED, emitter=emitter_id, photon=photon, tag=tag
            )
        )
        return emitter_id

    # ------------------------------------------------------------------ #
    # Finishing
    # ------------------------------------------------------------------ #

    def finish(self, tag: str = "") -> None:
        """Disconnect leftover emitter edges and free every emitter."""
        if self._slot_of:
            raise RuntimeError(
                "cannot finish the streaming reduction: photons remain in the "
                f"window ({sorted(self._slot_of)[:8]}...)"
            )
        self._release_all_emitters(tag)


@dataclass
class StreamCompileResult:
    """Summary of one streaming compile (the op list itself is not retained).

    ``operations`` is populated only when :func:`compile_stream` is called
    with ``collect_operations=True`` (the small-size oracle mode); production
    streams leave it ``None`` so memory stays bounded by the window.
    """

    family: str
    num_vertices: int
    num_edges: int
    num_regions: int
    window_capacity: int
    peak_window_photons: int
    num_emitters: int
    emitters_over_budget: int
    num_operations: int
    num_emissions: int
    num_emitter_emitter_gates: int
    op_counts: dict[str, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    operations: list[ReductionOp] | None = None


def _window_capacity(spec) -> int:
    """Pinned hubs plus the largest pair of adjacent regions.

    A streaming scan (one region size remembered at a time): with tiny
    chunks the region count is O(n), and materialising a size list here
    would dominate the traced peak of the whole compile.
    """
    widest = 1
    previous = 0
    for j in range(spec.num_regions):
        size = len(spec.region(j))
        widest = max(widest, previous + size)
        previous = size
    return len(spec.pinned()) + widest


def compile_stream(
    spec,
    strategy: GreedyReductionStrategy | None = None,
    tag: str = "",
    collect_operations: bool = False,
) -> StreamCompileResult:
    """Compile a lazy generator spec region by region with bounded memory.

    Walks ``spec`` (see :mod:`repro.graphs.lazy`) in descending region order,
    reducing each region's photons as soon as its lower neighbour region is
    admitted, and recycling window slots as photons detach.  The emitted
    operation sequence is bit-identical to
    ``greedy_reduce(spec.materialize(), strategy=strategy)`` — same rule
    engine, same processing order — but peak memory is bounded by two regions
    plus the emitter pool instead of the whole graph.

    Args:
        spec: a lazy generator spec (``LatticeStreamSpec`` & co).
        strategy: greedy policy knobs; defaults match :func:`greedy_reduce`.
        tag: tag attached to every generated operation.
        collect_operations: accumulate the full op list on the result (only
            for small-size verification; defeats the memory bound).

    Returns:
        A :class:`StreamCompileResult` with emitter count, op histogram and
        window statistics.
    """
    if strategy is None:
        strategy = GreedyReductionStrategy()
    started = time.perf_counter()

    # Count by op type only; the histogram and the emission / emitter-emitter
    # tallies are derived once after the stream ends.
    counts = dict.fromkeys(ReductionOpType, 0)
    collected: list[ReductionOp] | None = [] if collect_operations else None

    def sink(op: ReductionOp) -> None:
        counts[op.op_type] += 1
        if collected is not None:
            collected.append(op)

    state = StreamingReductionState(
        _window_capacity(spec),
        emitter_budget=strategy.emitter_budget,
        strict_budget=strategy.strict_budget,
        op_sink=sink,
    )

    def reduce_region(vertices) -> None:
        for vertex in reversed(vertices):
            reduce_photon(state, vertex, strategy, tag)
            if strategy.free_isolated_eagerly:
                state.free_isolated_emitters(tag=tag)

    pinned = tuple(spec.pinned())
    for hub in pinned:
        state.admit_photon(hub)
    num_regions = spec.num_regions
    num_edges = 0
    for j in range(num_regions - 1, -1, -1):
        for vertex in spec.region(j):
            state.admit_photon(vertex)
        for u, v in spec.region_edges(j):
            state.add_edge(u, v)
            num_edges += 1
        if j + 1 < num_regions:
            reduce_region(spec.region(j + 1))
    reduce_region(spec.region(0))
    reduce_region(pinned)
    state.finish(tag=tag)
    seen = {op_type: count for op_type, count in counts.items() if count}

    return StreamCompileResult(
        family=spec.family,
        num_vertices=spec.num_vertices,
        num_edges=num_edges,
        num_regions=num_regions,
        window_capacity=state.window_capacity,
        peak_window_photons=state.peak_window_photons,
        num_emitters=max(state.num_emitters_allocated, 1),
        emitters_over_budget=state.emitters_over_budget,
        num_operations=sum(seen.values()),
        num_emissions=sum(c for t, c in seen.items() if ReductionOp(t).is_emission),
        num_emitter_emitter_gates=counts[ReductionOpType.DISCONNECT],
        op_counts=dict(sorted((op_type.name, count) for op_type, count in seen.items())),
        elapsed_seconds=time.perf_counter() - started,
        operations=collected,
    )
