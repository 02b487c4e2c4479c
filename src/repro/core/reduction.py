"""Time-reversed graph reduction: the exact rewrite engine.

The emitter compiler works in the *time-reversed* picture (paper §II.C):
starting from the target graph state (all vertices are photons), it applies
reversed operations until nothing is left, then plays the sequence backwards
to obtain the forward generation circuit.  Each reversed operation used here
is an exact graph-state rewrite whose forward gate realisation is derived in
closed form (and re-verified against the stabilizer simulator in the test
suite):

=====================  =============================================  ==========================================
reversed operation      precondition (reversed time)                   forward gates (generation circuit)
=====================  =============================================  ==========================================
``SWAP``                photon ``p`` in graph, emitter ``e`` free      ``EMIT(e,p)  H(e)  MEASURE_Z(e)``
                                                                       (conditional ``Z(p)`` on outcome 1);
                                                                       photon takes over the emitter's
                                                                       neighbourhood, emitter is freed
``ABSORB_LEAF``         photon ``p`` dangling on emitter ``e``         ``EMIT(e,p)  H(p)`` — photon emitted as a
                                                                       leaf attached to the emitter
``ABSORB_DANGLING``     emitter ``e`` dangling on photon ``p``         ``EMIT(e,p)  H(e)`` — photon takes over the
                                                                       emitter's neighbourhood, emitter stays as
                                                                       a leaf on the photon
``ABSORB_TWIN``         emitter ``e`` and photon ``p`` are twins       ``H(e)  EMIT(e,p)  H(p)  H(e)`` — photon is
                        (same neighbourhood, not adjacent)             emitted as a twin of the emitter
``DISCONNECT``          edge between two active emitters               ``CZ(e1,e2)`` — the costly operation
``EMIT_ISOLATED``       isolated photon ``p``; some emitter free       ``EMIT(e,p)  H(p)`` from a free emitter
``FREE_EMITTER``        emitter isolated in the graph                  ``H(e)`` — emitter leaves/enters ``|+>``
=====================  =============================================  ==========================================

The engine maintains the invariant that, at every intermediate point, the
quantum state of the forward circuit is exactly the graph state of the current
working graph (active emitters ∪ already-emitted photons) tensored with
``|0>`` on all free emitters.  The invariant is what makes the final circuit
correct by construction; :func:`repro.circuit.validation.verify_circuit_generates`
double-checks it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Hashable, NamedTuple, Sequence

from repro.circuit.circuit import Circuit
from repro.circuit.gates import GateName, photon as photon_qubit
from repro.graphs.graph_state import GraphState

__all__ = [
    "ReductionOpType",
    "ReductionOp",
    "ReductionSequence",
    "ReductionState",
    "InsufficientEmittersError",
    "forward_circuit_from_sequence",
]

Vertex = Hashable


class InsufficientEmittersError(RuntimeError):
    """Raised when a strict emitter budget cannot accommodate the reduction."""


class ReductionOpType(str, enum.Enum):
    """The reversed-operation vocabulary (see the module docstring table)."""

    SWAP = "swap"
    ABSORB_LEAF = "absorb_leaf"
    ABSORB_DANGLING = "absorb_dangling"
    ABSORB_TWIN = "absorb_twin"
    DISCONNECT = "disconnect"
    EMIT_ISOLATED = "emit_isolated"
    FREE_EMITTER = "free_emitter"


class ReductionOp(NamedTuple):
    """One reversed operation.

    ``emitter`` / ``emitter_b`` are emitter ids (integers local to the
    reduction), ``photon`` is the photon index of the removed/affected photon,
    and ``tag`` lets callers attribute the operation to a pipeline stage.

    A named tuple, so it is immutable and cheap to build: the reduction
    states emit one per rewrite, and the leaf-order search runs hundreds of
    thousands of rewrites per compile.  The hot paths build it positionally,
    in field order ``(op_type, emitter, emitter_b, photon, tag)``.
    """

    op_type: ReductionOpType
    emitter: int | None = None
    emitter_b: int | None = None
    photon: int | None = None
    tag: str = ""

    def __repr__(self) -> str:
        parts = [self.op_type.value]
        if self.emitter is not None:
            parts.append(f"e{self.emitter}")
        if self.emitter_b is not None:
            parts.append(f"e{self.emitter_b}")
        if self.photon is not None:
            parts.append(f"p{self.photon}")
        body = ",".join(parts[1:])
        return f"{parts[0]}({body})"

    @property
    def is_emitter_emitter_gate(self) -> bool:
        """True when the forward realisation is an emitter-emitter two-qubit gate."""
        return self.op_type is ReductionOpType.DISCONNECT

    @property
    def is_emission(self) -> bool:
        """True when the forward realisation emits a photon."""
        return self.op_type in (
            ReductionOpType.SWAP,
            ReductionOpType.ABSORB_LEAF,
            ReductionOpType.ABSORB_DANGLING,
            ReductionOpType.ABSORB_TWIN,
            ReductionOpType.EMIT_ISOLATED,
        )


@dataclass
class ReductionSequence:
    """The outcome of a complete reduction.

    Attributes:
        operations: reversed operations in the order they were applied
            (reversed time).  The forward circuit applies them back to front.
        num_photons: number of photons of the target graph.
        num_emitters: number of emitter ids used.
        photon_of_vertex: map from target-graph vertex label to photon index.
        emitters_over_budget: how many emitters were allocated beyond the
            soft budget (0 when the budget sufficed).
    """

    operations: list[ReductionOp]
    num_photons: int
    num_emitters: int
    photon_of_vertex: dict[Vertex, int]
    emitters_over_budget: int = 0

    @property
    def num_emitter_emitter_gates(self) -> int:
        """Number of emitter-emitter CNOT/CZ gates in the forward circuit."""
        return sum(1 for op in self.operations if op.is_emitter_emitter_gate)

    @property
    def num_emissions(self) -> int:
        return sum(1 for op in self.operations if op.is_emission)

    def emission_order(self) -> list[int]:
        """Photon indices in forward emission order (first emitted first)."""
        reversed_removals = [
            op.photon for op in self.operations if op.is_emission and op.photon is not None
        ]
        return list(reversed(reversed_removals))

    def to_circuit(self, tag_prefix: str = "") -> Circuit:
        """Build the forward generation circuit (see module docstring table)."""
        return forward_circuit_from_sequence(self, tag_prefix=tag_prefix)


class ReductionState:
    """Mutable state of a time-reversed reduction.

    The working graph contains two vertex species encoded as tuples:
    ``("p", photon_index)`` and ``("e", emitter_id)``.  Photon indices are the
    positions of the target vertices in the order given at construction time;
    emitter ids are allocated on demand, bounded by a *soft* budget (the
    reduction records by how much the budget was exceeded rather than failing,
    unless ``strict_budget`` is set).
    """

    def __init__(
        self,
        target_graph: GraphState,
        emitter_budget: int | None = None,
        strict_budget: bool = False,
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
        self.photon_of_vertex: dict[Vertex, int] = {v: i for i, v in enumerate(vertices)}
        self.num_photons = len(vertices)
        self.emitter_budget = emitter_budget
        self.strict_budget = bool(strict_budget)
        self.emitters_over_budget = 0

        self.graph = GraphState()
        for v in vertices:
            self.graph.add_vertex(("p", self.photon_of_vertex[v]))
        for u, v in target_graph.edges():
            self.graph.add_edge(
                ("p", self.photon_of_vertex[u]), ("p", self.photon_of_vertex[v])
            )

        self.free_emitters: set[int] = set()
        self.active_emitters: set[int] = set()
        self.num_emitters_allocated = 0
        self.operations: list[ReductionOp] = []

    # ------------------------------------------------------------------ #
    # Vertex helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def _pnode(index: int) -> tuple[str, int]:
        return ("p", index)

    @staticmethod
    def _enode(index: int) -> tuple[str, int]:
        return ("e", index)

    def remaining_photons(self) -> list[int]:
        """Photon indices still present in the working graph."""
        return sorted(i for kind, i in self.graph.vertices() if kind == "p")

    def photon_in_graph(self, photon: int) -> bool:
        return self.graph.has_vertex(self._pnode(photon))

    def photon_neighbors(self, photon: int) -> tuple[set[int], set[int]]:
        """Neighbours of a photon, split into (photon indices, emitter ids)."""
        photons: set[int] = set()
        emitters: set[int] = set()
        for kind, idx in self.graph.neighbors(self._pnode(photon)):
            if kind == "p":
                photons.add(idx)
            else:
                emitters.add(idx)
        return photons, emitters

    def emitter_neighbors(self, emitter: int) -> tuple[set[int], set[int]]:
        """Neighbours of an emitter, split into (photon indices, emitter ids)."""
        photons: set[int] = set()
        emitters: set[int] = set()
        for kind, idx in self.graph.neighbors(self._enode(emitter)):
            if kind == "p":
                photons.add(idx)
            else:
                emitters.add(idx)
        return photons, emitters

    def emitter_degree(self, emitter: int) -> int:
        return self.graph.degree(self._enode(emitter))

    def photon_degree(self, photon: int) -> int:
        return self.graph.degree(self._pnode(photon))

    def is_done(self) -> bool:
        """True when every photon has been removed and every emitter is free."""
        return not self.remaining_photons() and not self.active_emitters

    def emitter_edge_count(self) -> int:
        """Number of emitter-emitter edges in the working graph."""
        return sum(1 for u, v in self.graph.edges() if u[0] == "e" and v[0] == "e")

    def ee_gate_bound(self) -> int:
        """``DISCONNECT`` ops so far plus emitter-emitter edges now, recounted.

        Every remaining edge costs one more ``DISCONNECT`` before the
        reduction ends, so this is a lower bound on the emitter-emitter gate
        count of any completion, and the exact count once the reduction is
        finished.  The bitset states keep it as two counters.
        """
        disconnects = sum(
            1 for op in self.operations if op.op_type is ReductionOpType.DISCONNECT
        )
        return disconnects + self.emitter_edge_count()

    # ------------------------------------------------------------------ #
    # Snapshot / restore (the leaf-order search's shared-prefix walk)
    # ------------------------------------------------------------------ #

    def snapshot(self) -> tuple:
        """Everything a later :meth:`restore` needs to rewind to this point."""
        return (
            self.graph.copy(),
            set(self.free_emitters),
            set(self.active_emitters),
            self.num_emitters_allocated,
            self.emitters_over_budget,
            len(self.operations),
        )

    def restore(self, snapshot: tuple) -> None:
        """Rewind to ``snapshot``; it stays valid for further restores.

        ``operations`` is truncated in place, so a reference to the list
        (or to its ``append``) keeps seeing the state's operations.  That
        makes this a rewind only: ``snapshot`` must lie on the path to the
        current state, as a trie walk's ancestor does.
        """
        graph, free, active, allocated, over_budget, num_ops = snapshot
        self.graph = graph.copy()
        self.free_emitters = set(free)
        self.active_emitters = set(active)
        self.num_emitters_allocated = allocated
        self.emitters_over_budget = over_budget
        del self.operations[num_ops:]

    # ------------------------------------------------------------------ #
    # Rule queries (shared with the packed fast path)
    #
    # The greedy strategy (:mod:`repro.core.strategies`) drives photon
    # removal exclusively through these queries, so any state implementation
    # that answers them identically produces bit-identical op sequences.
    # :class:`repro.core.packed_reduction.BitsetReductionState` implements the
    # same queries once on word-packed adjacency rows, for both the
    # whole-graph and the streaming bitset state.
    # ------------------------------------------------------------------ #

    def photon_neighbor_counts(self, photon: int) -> tuple[int, int]:
        """``(#photon neighbours, #emitter neighbours)`` of a photon."""
        photons, emitters = self.photon_neighbors(photon)
        return len(photons), len(emitters)

    def find_dangling_emitter(self, photon: int) -> int | None:
        """Smallest emitter adjacent to ``photon`` whose only neighbour is it."""
        _, emitters = self.photon_neighbors(photon)
        candidates = [e for e in emitters if self.emitter_degree(e) == 1]
        return min(candidates) if candidates else None

    def find_leaf_host(self, photon: int) -> int | None:
        """The emitter hosting ``photon`` when the photon has degree 1."""
        if self.photon_degree(photon) != 1:
            return None
        _, emitters = self.photon_neighbors(photon)
        return min(emitters) if emitters else None

    def find_twin_emitter(self, photon: int) -> int | None:
        """First active emitter (ascending id) that is a non-adjacent twin."""
        pnode = self._pnode(photon)
        photon_neighbourhood = self.graph.neighbors(pnode)
        for emitter in sorted(self.active_emitters):
            enode = self._enode(emitter)
            if self.graph.has_edge(pnode, enode):
                continue
            if self.graph.neighbors(enode) == photon_neighbourhood:
                return emitter
        return None

    def disconnect_absorb_candidate(self, photon: int) -> tuple[int, int] | None:
        """Best ``(cost, emitter)`` for the disconnect-absorb move, or ``None``.

        The move requires an emitter adjacent to ``photon`` whose *other*
        neighbours are all emitters (emitter-photon edges cannot be cut); the
        immediate cost is the number of those neighbours.  Scanning ascending
        emitter ids with a strict improvement keeps the choice deterministic.
        """
        _, emitters = self.photon_neighbors(photon)
        best: tuple[int, int] | None = None
        for e in sorted(emitters):
            other_photons, other_emitters = self.emitter_neighbors(e)
            other_photons = other_photons - {photon}
            if other_photons:
                continue
            cost = len(other_emitters)
            if best is None or cost < best[0]:
                best = (cost, e)
        return best

    def liberation_candidate(self) -> tuple[int, int] | None:
        """Best ``(cost, emitter)`` freeable by disconnecting it, or ``None``."""
        best: tuple[int, int] | None = None
        for emitter in sorted(self.active_emitters):
            photons, emitters = self.emitter_neighbors(emitter)
            if photons:
                continue
            cost = len(emitters)
            if best is None or cost < best[0]:
                best = (cost, emitter)
        return best

    # ------------------------------------------------------------------ #
    # Emitter pool management
    # ------------------------------------------------------------------ #

    def acquire_free_emitter(self, preferred: int | None = None) -> int:
        """Return a free emitter id, allocating a new one if needed.

        ``preferred`` is honoured when that emitter is currently free.  When
        the soft budget is exceeded the overflow is recorded; with
        ``strict_budget`` an :class:`InsufficientEmittersError` is raised
        instead.
        """
        if preferred is not None and preferred in self.free_emitters:
            self.free_emitters.discard(preferred)
            self.active_emitters.add(preferred)
            return preferred
        if self.free_emitters:
            chosen = min(self.free_emitters)
            self.free_emitters.discard(chosen)
            self.active_emitters.add(chosen)
            return chosen
        if (
            self.emitter_budget is not None
            and self.num_emitters_allocated >= self.emitter_budget
        ):
            if self.strict_budget:
                raise InsufficientEmittersError(
                    f"emitter budget of {self.emitter_budget} exhausted"
                )
            self.emitters_over_budget += 1
        new_id = self.num_emitters_allocated
        self.num_emitters_allocated += 1
        self.active_emitters.add(new_id)
        return new_id

    def _activate(self, emitter: int) -> None:
        self.free_emitters.discard(emitter)
        self.active_emitters.add(emitter)
        if not self.graph.has_vertex(self._enode(emitter)):
            self.graph.add_vertex(self._enode(emitter))

    def _release(self, emitter: int) -> None:
        if self.graph.has_vertex(self._enode(emitter)):
            self.graph.remove_vertex(self._enode(emitter))
        self.active_emitters.discard(emitter)
        self.free_emitters.add(emitter)

    # ------------------------------------------------------------------ #
    # Reversed operations
    # ------------------------------------------------------------------ #

    def apply_swap(self, photon: int, emitter: int | None = None, tag: str = "") -> int:
        """Replace ``photon`` by a free emitter (reversed emission + measurement).

        Returns the emitter id used.
        """
        if not self.photon_in_graph(photon):
            raise ValueError(f"photon {photon} is not in the working graph")
        emitter_id = self.acquire_free_emitter(preferred=emitter)
        pnode = self._pnode(photon)
        neighbours = list(self.graph.neighbors(pnode))
        enode = self._enode(emitter_id)
        if not self.graph.has_vertex(enode):
            self.graph.add_vertex(enode)
        for neighbour in neighbours:
            self.graph.add_edge(enode, neighbour)
        self.graph.remove_vertex(pnode)
        self.operations.append(
            ReductionOp(ReductionOpType.SWAP, emitter=emitter_id, photon=photon, tag=tag)
        )
        return emitter_id

    def apply_absorb_leaf(self, emitter: int, photon: int, tag: str = "") -> None:
        """Absorb a photon that dangles on ``emitter`` (degree-1 photon)."""
        pnode = self._pnode(photon)
        enode = self._enode(emitter)
        if not self.photon_in_graph(photon):
            raise ValueError(f"photon {photon} is not in the working graph")
        if self.photon_degree(photon) != 1 or not self.graph.has_edge(pnode, enode):
            raise ValueError(
                f"photon {photon} is not dangling on emitter {emitter}; "
                "ABSORB_LEAF precondition violated"
            )
        self.graph.remove_vertex(pnode)
        self.operations.append(
            ReductionOp(ReductionOpType.ABSORB_LEAF, emitter=emitter, photon=photon, tag=tag)
        )

    def apply_absorb_dangling(self, emitter: int, photon: int, tag: str = "") -> None:
        """Absorb ``photon`` into a dangling emitter that is attached to it.

        The emitter inherits the photon's remaining neighbourhood.
        """
        pnode = self._pnode(photon)
        enode = self._enode(emitter)
        if not self.photon_in_graph(photon):
            raise ValueError(f"photon {photon} is not in the working graph")
        if self.emitter_degree(emitter) != 1 or not self.graph.has_edge(pnode, enode):
            raise ValueError(
                f"emitter {emitter} is not dangling on photon {photon}; "
                "ABSORB_DANGLING precondition violated"
            )
        inherited = [n for n in self.graph.neighbors(pnode) if n != enode]
        self.graph.remove_vertex(pnode)
        for neighbour in inherited:
            self.graph.add_edge(enode, neighbour)
        self.operations.append(
            ReductionOp(
                ReductionOpType.ABSORB_DANGLING, emitter=emitter, photon=photon, tag=tag
            )
        )

    def apply_absorb_twin(self, emitter: int, photon: int, tag: str = "") -> None:
        """Absorb ``photon`` when it has exactly the emitter's neighbourhood.

        Precondition: ``N(photon) == N(emitter)`` and the two are not adjacent.
        """
        pnode = self._pnode(photon)
        enode = self._enode(emitter)
        if not self.photon_in_graph(photon):
            raise ValueError(f"photon {photon} is not in the working graph")
        if self.graph.has_edge(pnode, enode):
            raise ValueError(
                f"photon {photon} and emitter {emitter} are adjacent; "
                "ABSORB_TWIN requires non-adjacent twins"
            )
        if self.graph.neighbors(pnode) != self.graph.neighbors(enode):
            raise ValueError(
                f"photon {photon} and emitter {emitter} are not twins; "
                "ABSORB_TWIN precondition violated"
            )
        self.graph.remove_vertex(pnode)
        self.operations.append(
            ReductionOp(ReductionOpType.ABSORB_TWIN, emitter=emitter, photon=photon, tag=tag)
        )

    def apply_disconnect(self, emitter_a: int, emitter_b: int, tag: str = "") -> None:
        """Remove an emitter-emitter edge (forward: one CZ gate)."""
        node_a = self._enode(emitter_a)
        node_b = self._enode(emitter_b)
        if not self.graph.has_edge(node_a, node_b):
            raise ValueError(
                f"emitters {emitter_a} and {emitter_b} are not adjacent; nothing to disconnect"
            )
        self.graph.remove_edge(node_a, node_b)
        self.operations.append(
            ReductionOp(
                ReductionOpType.DISCONNECT, emitter=emitter_a, emitter_b=emitter_b, tag=tag
            )
        )

    def apply_emit_isolated(self, photon: int, emitter: int | None = None, tag: str = "") -> int:
        """Remove an isolated photon (forward: emit an unentangled ``|+>`` photon).

        A free emitter is required (the emission CNOT must come from a
        disentangled emitter); it stays free.  Returns the emitter id used.
        """
        if not self.photon_in_graph(photon):
            raise ValueError(f"photon {photon} is not in the working graph")
        if self.photon_degree(photon) != 0:
            raise ValueError(f"photon {photon} is not isolated")
        if emitter is not None and emitter in self.free_emitters:
            emitter_id = emitter
        elif self.free_emitters:
            emitter_id = min(self.free_emitters)
        else:
            # Allocate a pool slot but keep it free: the emitter is only used
            # as an emission source and never becomes entangled.
            emitter_id = self.acquire_free_emitter()
            self.active_emitters.discard(emitter_id)
            self.free_emitters.add(emitter_id)
        self.graph.remove_vertex(self._pnode(photon))
        self.operations.append(
            ReductionOp(
                ReductionOpType.EMIT_ISOLATED, emitter=emitter_id, photon=photon, tag=tag
            )
        )
        return emitter_id

    def apply_free_emitter(self, emitter: int, tag: str = "") -> None:
        """Release an isolated active emitter back into the free pool."""
        enode = self._enode(emitter)
        if emitter not in self.active_emitters:
            raise ValueError(f"emitter {emitter} is not active")
        if self.graph.degree(enode) != 0:
            raise ValueError(f"emitter {emitter} is not isolated and cannot be freed")
        self._release(emitter)
        self.operations.append(
            ReductionOp(ReductionOpType.FREE_EMITTER, emitter=emitter, tag=tag)
        )

    def free_isolated_emitters(self, tag: str = "") -> list[int]:
        """Free every active emitter that has become isolated; return their ids."""
        freed = []
        for emitter in sorted(self.active_emitters):
            if self.graph.degree(self._enode(emitter)) == 0:
                self.apply_free_emitter(emitter, tag=tag)
                freed.append(emitter)
        return freed

    # ------------------------------------------------------------------ #
    # Finishing
    # ------------------------------------------------------------------ #

    def disconnect_all_emitter_edges(self, tag: str = "") -> int:
        """Remove every remaining emitter-emitter edge; return how many.

        The edges are collected once and applied in one deterministic
        (sorted) pass — disconnects never create emitter-emitter edges, so a
        single scan suffices (the historical implementation rescanned every
        edge after each disconnect, which was quadratic in the edge count).
        """
        pairs = sorted(
            (u[1], v[1]) if u[1] <= v[1] else (v[1], u[1])
            for u, v in self.graph.edges()
            if u[0] == "e" and v[0] == "e"
        )
        for a, b in pairs:
            self.apply_disconnect(a, b, tag=tag)
        return len(pairs)

    def release_all_emitters(self, tag: str = "") -> None:
        """The tail of :meth:`finish`: disconnect leftover edges, free every emitter.

        A second call is a no-op, so :meth:`finish` may follow it.
        """
        self.disconnect_all_emitter_edges(tag=tag)
        self.free_isolated_emitters(tag=tag)
        if self.active_emitters:  # pragma: no cover - defensive
            raise RuntimeError(f"emitters left active after finish: {self.active_emitters}")

    def finish(self, tag: str = "") -> ReductionSequence:
        """Disconnect leftover emitter edges, free emitters and return the sequence.

        Raises:
            RuntimeError: if photons remain in the working graph.
        """
        if self.remaining_photons():
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


def forward_circuit_from_sequence(
    sequence: ReductionSequence, tag_prefix: str = ""
) -> Circuit:
    """Reverse a reduction sequence into the forward generation circuit."""
    circuit = Circuit(num_emitters=sequence.num_emitters, num_photons=sequence.num_photons)
    for op in reversed(sequence.operations):
        tag = f"{tag_prefix}{op.tag}" if tag_prefix or op.tag else ""
        if op.op_type is ReductionOpType.SWAP:
            assert op.emitter is not None and op.photon is not None
            circuit.add_emission(op.emitter, op.photon, tag=tag)
            circuit.add_single(GateName.H, circuit_emitter(op.emitter), tag=tag)
            circuit.add_measure(
                op.emitter,
                conditional_paulis=[("Z", photon_qubit(op.photon))],
                tag=tag,
            )
        elif op.op_type is ReductionOpType.ABSORB_LEAF:
            assert op.emitter is not None and op.photon is not None
            circuit.add_emission(op.emitter, op.photon, tag=tag)
            circuit.add_single(GateName.H, photon_qubit(op.photon), tag=tag)
        elif op.op_type is ReductionOpType.ABSORB_DANGLING:
            assert op.emitter is not None and op.photon is not None
            circuit.add_emission(op.emitter, op.photon, tag=tag)
            circuit.add_single(GateName.H, circuit_emitter(op.emitter), tag=tag)
        elif op.op_type is ReductionOpType.ABSORB_TWIN:
            assert op.emitter is not None and op.photon is not None
            circuit.add_single(GateName.H, circuit_emitter(op.emitter), tag=tag)
            circuit.add_emission(op.emitter, op.photon, tag=tag)
            circuit.add_single(GateName.H, photon_qubit(op.photon), tag=tag)
            circuit.add_single(GateName.H, circuit_emitter(op.emitter), tag=tag)
        elif op.op_type is ReductionOpType.DISCONNECT:
            assert op.emitter is not None and op.emitter_b is not None
            circuit.add_cz(op.emitter, op.emitter_b, tag=tag)
        elif op.op_type is ReductionOpType.EMIT_ISOLATED:
            assert op.emitter is not None and op.photon is not None
            circuit.add_emission(op.emitter, op.photon, tag=tag)
            circuit.add_single(GateName.H, photon_qubit(op.photon), tag=tag)
        elif op.op_type is ReductionOpType.FREE_EMITTER:
            assert op.emitter is not None
            circuit.add_single(GateName.H, circuit_emitter(op.emitter), tag=tag)
        else:  # pragma: no cover - the enum is closed
            raise ValueError(f"unknown reduction operation {op!r}")
    return circuit


def circuit_emitter(index: int):
    """Tiny alias to keep :func:`forward_circuit_from_sequence` readable."""
    from repro.circuit.gates import emitter

    return emitter(index)
