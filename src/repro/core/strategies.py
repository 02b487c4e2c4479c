"""Greedy reduction strategy shared by the baseline and the framework.

Given a *processing order* (the order in which photons are handled in
reversed time — i.e. the reverse of the forward emission order), the greedy
strategy removes one photon at a time by trying the reversed operations in a
fixed priority:

1. ``EMIT_ISOLATED`` for isolated photons (free);
2. ``ABSORB_DANGLING`` — a dangling emitter attached to the photon takes over
   its neighbourhood (free);
3. ``ABSORB_LEAF`` — the photon dangles on an emitter (free);
4. ``ABSORB_TWIN`` — an emitter with an identical neighbourhood absorbs the
   photon (free);
5. otherwise the photon must be handed to an emitter, and the strategy picks
   the cheaper of two moves by an immediate + deferred CNOT cost estimate:

   * **disconnect-absorb** — an emitter adjacent to the photon is first cut
     loose from its other (emitter) neighbours and then absorbs the photon;
   * **swap** — the photon is replaced by a free emitter (an emission and a
     measurement); when the pool is exhausted an emitter is liberated by
     disconnecting it from the other emitters first.

   Both moves leave the photon's former emitter-neighbours entangled with the
   chosen emitter; those edges eventually cost one emitter-emitter CNOT each,
   which is what the deferred term of the cost estimate accounts for.

The quality of the resulting circuit therefore depends on the processing
order, the emitter budget and the allocation policy — exactly the knobs the
paper's framework turns (per-subgraph ordering search, LC pre-processing,
flexible emitter constraint and scheduling).  The baseline uses the natural
vertex order with a minimal emitter pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Sequence, Union

from repro.core.packed_reduction import BitsetReductionState, make_reduction_state
from repro.core.reduction import ReductionSequence, ReductionState
from repro.graphs.graph_state import GraphState

__all__ = ["GreedyReductionStrategy", "greedy_reduce", "reduce_and_free", "reduce_photon"]

Vertex = Hashable

#: Either working-graph representation; both answer the same rule-query
#: protocol with identical tie-breaking, so the strategy below is
#: representation-agnostic and produces bit-identical op sequences.  A
#: bitset state takes photon slots, which only the caller interprets.
AnyReductionState = Union[ReductionState, BitsetReductionState]


@dataclass(frozen=True)
class GreedyReductionStrategy:
    """Configuration of the greedy reduction.

    Attributes:
        emitter_budget: soft maximum number of emitters (``None`` = unbounded).
        enable_twin_rule: allow the ``ABSORB_TWIN`` rewrite.
        prefer_disconnect_over_allocate: when a swap needs an emitter and none
            is free, prefer liberating an existing emitter over allocating a
            new one even if the budget has headroom.  This reproduces the
            minimal-emitter behaviour of the baseline protocols at the price
            of extra emitter-emitter CNOTs.
        allow_disconnect_absorb: enable the costed disconnect-absorb move.
            The prior-art protocols (Li et al. / GraphiQ's deterministic
            solver) fall back to a time-reversed measurement (our ``SWAP``)
            whenever no free absorption exists, so the baseline disables this
            move; the hardware-aware framework keeps it.
        preferred_emitters: optional pool of emitter ids to prefer when
            acquiring a free emitter (used by the scheduler to implement
            emitter affinity between a subgraph and its assigned emitters).
    """

    emitter_budget: int | None = None
    enable_twin_rule: bool = True
    prefer_disconnect_over_allocate: bool = False
    allow_disconnect_absorb: bool = True
    preferred_emitters: tuple[int, ...] = ()


# --------------------------------------------------------------------------- #
# Rule helpers
# --------------------------------------------------------------------------- #


def _liberate(state: AnyReductionState, emitter: int, tag: str) -> None:
    """Disconnect ``emitter`` from all of its (emitter) neighbours and free it."""
    _, neighbours = state.emitter_neighbors(emitter)
    for other in sorted(neighbours):
        state.apply_disconnect(emitter, other, tag=tag)
    state.apply_free_emitter(emitter, tag=tag)


# --------------------------------------------------------------------------- #
# Photon removal
# --------------------------------------------------------------------------- #


def reduce_photon(
    state: AnyReductionState,
    photon: int,
    strategy: GreedyReductionStrategy,
    tag: str = "",
) -> None:
    """Remove one photon from the working graph using the rule priority.

    This is exposed separately from :func:`greedy_reduce` so that the
    subgraph search (:mod:`repro.core.subgraph_compiler`) can drive photon
    removal step by step while exploring different processing orders.  All
    graph inspection goes through the shared rule-query protocol, so the
    same code drives both the dict-based oracle and the packed fast path.
    """
    if state.photon_degree(photon) == 0:
        state.apply_emit_isolated(photon, tag=tag)
        return

    dangling = state.find_dangling_emitter(photon)
    if dangling is not None:
        state.apply_absorb_dangling(dangling, photon, tag=tag)
        return

    leaf_host = state.find_leaf_host(photon)
    if leaf_host is not None:
        state.apply_absorb_leaf(leaf_host, photon, tag=tag)
        return

    if strategy.enable_twin_rule:
        twin = state.find_twin_emitter(photon)
        if twin is not None:
            state.apply_absorb_twin(twin, photon, tag=tag)
            return

    # Costed choice between disconnect-absorb and swap.
    deferred_edges = state.photon_neighbor_counts(photon)[1]

    absorb_option = (
        state.disconnect_absorb_candidate(photon)
        if strategy.allow_disconnect_absorb
        else None
    )
    absorb_cost = math.inf
    if absorb_option is not None:
        # The chosen emitter stops counting as a deferred edge once it hosts
        # the photon's neighbourhood.
        absorb_cost = absorb_option[0] + max(0, deferred_edges - 1)

    budget = strategy.emitter_budget
    can_allocate = budget is None or state.num_emitters_allocated < budget
    liberation: tuple[int, int] | None = None
    swap_setup_cost = 0.0
    if not state.free_emitters and (
        strategy.prefer_disconnect_over_allocate or not can_allocate
    ):
        # With nothing to liberate the swap allocates, over the budget if need
        # be (the state records the overflow).
        liberation = state.liberation_candidate()
        if liberation is not None:
            swap_setup_cost = liberation[0]
    swap_cost = swap_setup_cost + deferred_edges

    if absorb_cost <= swap_cost and absorb_option is not None:
        _, chosen = absorb_option
        _, other_emitters = state.emitter_neighbors(chosen)
        for other in sorted(other_emitters):
            state.apply_disconnect(chosen, other, tag=tag)
        state.apply_absorb_dangling(chosen, photon, tag=tag)
        return

    if not state.free_emitters and liberation is not None and (
        strategy.prefer_disconnect_over_allocate or not can_allocate
    ):
        _liberate(state, liberation[1], tag)
    preferred = None
    for candidate in strategy.preferred_emitters:
        if candidate in state.free_emitters:
            preferred = candidate
            break
    state.apply_swap(photon, emitter=preferred, tag=tag)


def reduce_and_free(
    state: AnyReductionState,
    photon: int,
    strategy: GreedyReductionStrategy,
    tag: str = "",
) -> None:
    """One step of a reduction: remove ``photon``, then the eager free pass.

    Every driver of the greedy reduction (:func:`greedy_reduce`, the leaf
    search's shared-prefix walk, the global reduction and the streaming
    compile) takes its steps through this helper, so they cannot drift apart.
    """
    reduce_photon(state, photon, strategy, tag)
    state.free_isolated_emitters(tag=tag)


# --------------------------------------------------------------------------- #
# Full reduction
# --------------------------------------------------------------------------- #


def greedy_reduce(
    target_graph: GraphState,
    processing_order: Sequence[Vertex] | None = None,
    strategy: GreedyReductionStrategy | None = None,
    tag: str = "",
    backend: str | None = None,
) -> ReductionSequence:
    """Reduce ``target_graph`` completely and return the reduction sequence.

    Args:
        target_graph: the photonic graph state to generate.
        processing_order: vertices in reversed-time processing order (the
            first vertex listed is the photon emitted *last* in the forward
            circuit).  Defaults to the reverse of the vertex order, which
            makes the forward emission order the natural vertex order — the
            baseline behaviour.
        strategy: greedy policy knobs (:class:`GreedyReductionStrategy`).
        tag: tag attached to every generated operation/gate.
        backend: working-graph representation (``None`` = process default):
            ``"packed"`` runs on the bitset fast path, ``"dense"`` on the
            networkx oracle.  Both yield bit-identical sequences.

    Returns:
        A complete :class:`repro.core.reduction.ReductionSequence` that can be
        turned into a verified forward circuit with ``.to_circuit()``.
    """
    if strategy is None:
        strategy = GreedyReductionStrategy()
    state = make_reduction_state(
        target_graph, emitter_budget=strategy.emitter_budget, backend=backend
    )
    if processing_order is None:
        processing_order = list(reversed(target_graph.vertices()))
    else:
        processing_order = list(processing_order)
    if set(processing_order) != set(target_graph.vertices()) or len(
        processing_order
    ) != target_graph.num_vertices:
        raise ValueError("processing_order must be a permutation of the target vertices")

    for vertex in processing_order:
        photon = state.photon_of_vertex[vertex]
        if not state.photon_in_graph(photon):  # pragma: no cover - defensive
            continue
        reduce_and_free(state, photon, strategy, tag)
    return state.finish(tag=tag)
