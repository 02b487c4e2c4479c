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
**provided all neighbours of the photon being reduced are admitted**.  Both
are the same :class:`~repro.core.packed_reduction.BitsetReductionState`; the
window only maps photons to recycled slots and names each operation's photon
by its global vertex id.  The
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

from repro.core.packed_reduction import BitsetReductionState
from repro.core.reduction import ReductionOp, ReductionOpType
from repro.core.strategies import GreedyReductionStrategy, reduce_and_free

__all__ = ["StreamCompileResult", "StreamingReductionState", "compile_stream"]

OpSink = Callable[[ReductionOp], None]


class StreamingReductionState(BitsetReductionState):
    """Windowed reduction state: bounded slots, global photon names, op sink.

    Photons are *admitted* into one of ``window_capacity`` slots (bit ``s``
    for slot ``s``, emitter ``e`` at bit ``window_capacity + e``) and their
    slots are recycled once the reduction removes them.  Queries and
    rewrites take the slot (``_slot_of[vertex]``); emitted operations name
    the **global** vertex id, so they carry the same ids as a whole-graph
    reduction over the same processing order.

    Operations go to ``op_sink`` when given (constant memory); otherwise they
    accumulate in ``self.operations`` for the small-size oracle tests.  The
    rule queries, the rewrites, the emitter pool and the free pass come from
    :class:`~repro.core.packed_reduction.BitsetReductionState`.
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
        cap = int(window_capacity)
        super().__init__(cap, [-1] * cap, emitter_budget, strict_budget)
        self._slot_of: dict[int, int] = {}
        self._free_slots = list(range(cap - 1, -1, -1))
        self.peak_window_photons = 0
        self.photons_admitted = 0
        self.photons_reduced = 0
        if op_sink is not None:
            self._emit = op_sink

    @property
    def window_capacity(self) -> int:
        return self._eoff

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
                f"streaming window capacity {self._eoff} exhausted; the spec's "
                "region locality contract is violated or the window is too small"
            )
        slot = self._free_slots.pop()
        self._slot_of[photon] = slot
        self._name[slot] = photon
        self._alive |= 1 << slot
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

    def _release(self, slot: int) -> None:
        """Drop a removed photon and recycle its slot."""
        self._alive &= ~(1 << slot)
        del self._slot_of[self._name[slot]]
        self._free_slots.append(slot)
        self.photons_reduced += 1

    def snapshot(self) -> tuple:
        """Not supported: a snapshot would miss the window's slot maps."""
        raise NotImplementedError(
            "StreamingReductionState cannot snapshot its window; "
            "snapshot/restore serve whole-graph states only"
        )

    def restore(self, snapshot: tuple) -> None:
        """Not supported; see :meth:`snapshot`."""
        raise NotImplementedError(
            "StreamingReductionState cannot restore its window; "
            "snapshot/restore serve whole-graph states only"
        )

    def finish(self, tag: str = "") -> None:
        """Disconnect leftover emitter edges and free every emitter."""
        if self._slot_of:
            raise RuntimeError(
                "cannot finish the streaming reduction: photons remain in the "
                f"window ({sorted(self._slot_of)[:8]}...)"
            )
        self.release_all_emitters(tag)


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

    slot_of = state._slot_of

    def reduce_region(vertices) -> None:
        for vertex in reversed(vertices):
            reduce_and_free(state, slot_of[vertex], strategy, tag)

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
