"""The top-level divide-and-conquer compiler (:class:`EmitterCompiler`).

Pipeline for one target graph state ``|G>``:

1. **Partition + LC** (:mod:`repro.core.partition`) — find a local-Clifford
   equivalent graph ``G'`` and a partition of its vertices into blocks of at
   most ``g_max`` vertices with few stem edges.
2. **Subgraph compilation** (:mod:`repro.core.subgraph_compiler`) — for every
   block, search photon orderings under the flexible emitter constraint.
3. **Scheduling** (:mod:`repro.core.scheduler`) — order the blocks by the
   priority ``P_c = n_p / T_c``, pack them onto at most ``N_e^limit``
   emitters (Tetris) and pick the flexible-constraint variant that maximises
   utilisation.
4. **Global reduction** — replay the per-block processing orders on the full
   graph ``G'`` through the exact reduction engine, with emitter affinity
   taken from the packing.  Stem edges are automatically compiled into
   emitter-emitter gates at this stage.
5. **LC correction + ALAP scheduling** — append the single-qubit gates that
   map ``|G'>`` back to ``|G>``, schedule the gates as late as possible with
   the hardware durations, and (optionally) verify the circuit end to end on
   the stabilizer simulator.

The result object carries the full provenance (partition, per-block results,
schedule plan, metrics) so the evaluation harness and the examples can report
every quantity of the paper without recomputing anything.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Hashable

from repro.circuit.circuit import Circuit
from repro.circuit.gates import Gate, GateName, photon as photon_qubit
from repro.circuit.metrics import CircuitMetrics, compute_metrics
from repro.circuit.timing import Schedule, schedule_circuit
from repro.circuit.validation import verify_circuit_generates
from repro.core.config import CompilerConfig
from repro.core.ordering import OrderingResult, optimize_emission_ordering
from repro.core.packed_reduction import make_reduction_state
from repro.core.partition import GraphPartitioner, PartitionResult
from repro.core.plan_scoring import score_sequence
from repro.core.reduction import ReductionSequence
from repro.core.scheduler import SchedulePlan, SubgraphScheduler
from repro.core.strategies import GreedyReductionStrategy, reduce_and_free
from repro.core.subgraph_compiler import (
    LeafSearchStats,
    SubgraphCompilationResult,
    SubgraphCompiler,
)
from repro.graphs.entanglement import minimum_emitters
from repro.graphs.graph_state import GraphState
from repro.graphs.local_complementation import lc_correction_gates
from repro.utils.backend import use_backend
from repro.utils.misc import make_rng

__all__ = ["CompilationResult", "EmitterCompiler", "compile_graph"]

Vertex = Hashable


@dataclass
class CompilationResult:
    """Everything the framework produces for one target graph."""

    circuit: Circuit
    sequence: ReductionSequence
    schedule: Schedule
    metrics: CircuitMetrics
    partition: PartitionResult
    subgraph_results: list[dict[int, SubgraphCompilationResult]]
    schedule_plan: SchedulePlan | None
    minimum_emitters: int
    emitter_limit: int
    compile_time_seconds: float
    verified: bool | None = None
    ordering_strategy: str = "natural"
    ordering_peak: int | None = None
    #: Subgraph-compile-cache counter delta observed over this compilation
    #: (``None`` when the cache is disabled).  The counters belong to the
    #: shared process-wide cache, so with *concurrent* compilations in one
    #: process the delta includes the other threads' lookups — treat it as
    #: best-effort observability, not an exact per-compile ledger.
    #: Deliberately kept out of :meth:`summary`: hit counts depend on
    #: process state (warm vs cold cache), and summaries must stay a
    #: deterministic function of the job for content-hash result caching to
    #: be sound.
    subgraph_cache_stats: dict[str, float] | None = None
    #: Work of the leaf-order searches this compilation ran (a subgraph
    #: cache hit adds nothing).  Deterministic for a given job and cache
    #: state, but kept out of :meth:`summary` for the same reason as the
    #: cache counters: a warm cache changes it without changing the circuit.
    leaf_search_stats: LeafSearchStats = field(default_factory=LeafSearchStats)
    #: Wall time of each pipeline stage in seconds, in pipeline order:
    #: ``partition_lc``, ``emitter_bound``, ``leaf_search``,
    #: ``recombination_plan``, ``global_reduction``, ``lc_correction``,
    #: ``schedule_metrics`` and ``verify``.  The stages tile the compile, so
    #: they sum to ``compile_time_seconds``.  Kept out of :meth:`summary`:
    #: timings differ run to run, and summaries must stay a deterministic
    #: function of the job.
    stage_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def num_emitter_emitter_cnots(self) -> int:
        return self.metrics.num_emitter_emitter_cnots

    @property
    def duration(self) -> float:
        return self.metrics.duration

    @property
    def average_photon_loss_duration(self) -> float:
        return self.metrics.average_photon_loss_duration

    @property
    def photon_loss_probability(self) -> float | None:
        return self.metrics.photon_loss_probability

    @property
    def num_stem_edges(self) -> int:
        return self.partition.num_stem_edges

    def summary(self) -> dict[str, float]:
        """Flat dictionary used by the evaluation harness and the CLI."""
        data = self.metrics.as_dict()
        data.update(
            {
                "num_stem_edges": self.num_stem_edges,
                "num_blocks": self.partition.num_blocks,
                "num_lc_operations": len(self.partition.lc_operations),
                "minimum_emitters": self.minimum_emitters,
                "emitter_limit": self.emitter_limit,
                "compile_time_seconds": self.compile_time_seconds,
                "ordering_strategy": self.ordering_strategy,
            }
        )
        if self.ordering_peak is not None:
            data["ordering_peak"] = self.ordering_peak
        return data


class EmitterCompiler:
    """The paper's scalable compilation framework."""

    def __init__(self, config: CompilerConfig | None = None):
        self.config = config if config is not None else CompilerConfig()
        self._partitioner = GraphPartitioner(self.config)
        self._subgraph_compiler = SubgraphCompiler(self.config)

    # ------------------------------------------------------------------ #

    def compile(self, target_graph: GraphState) -> CompilationResult:
        """Compile ``target_graph`` into a verified generation circuit.

        When ``config.gf2_backend`` is set, every GF(2)/tableau kernel of the
        compilation (cut ranks, partitioning, verification) runs on that
        backend; otherwise the process default applies.
        """
        with use_backend(self.config.gf2_backend):
            return self._compile(target_graph)

    def _compile(self, target_graph: GraphState) -> CompilationResult:
        if target_graph.num_vertices == 0:
            raise ValueError("cannot compile an empty graph state")
        config = self.config
        started = time.perf_counter()
        stage_seconds: dict[str, float] = {}
        stage_started = started

        def lap(stage: str) -> None:
            """Close ``stage`` now and start timing the next one."""
            nonlocal stage_started
            now = time.perf_counter()
            stage_seconds[stage] = now - stage_started
            stage_started = now

        # 1. Partition + LC.
        partition = self._partitioner.partition(target_graph)
        working_graph = partition.transformed_graph
        lap("partition_lc")

        # 2. Emitter budget.  With an ordering strategy enabled the optimiser
        # searches for an emission ordering with a lower peak height; the
        # bound it certifies (never above the natural one) sizes the pool.
        n_e_min = minimum_emitters(working_graph)
        ordering_search: OrderingResult | None = None
        if config.ordering_strategy != "natural":
            ordering_search = optimize_emission_ordering(
                working_graph,
                strategy=config.ordering_strategy,
                seed=config.seed,
                iterations=config.ordering_iterations,
            )
            n_e_min = min(n_e_min, max(ordering_search.peak_height, 1))
        if config.emitter_limit is not None:
            emitter_limit = config.emitter_limit
        else:
            emitter_limit = max(1, int(-(-config.emitter_limit_factor * n_e_min // 1)))
        emitter_limit = max(emitter_limit, 1)
        lap("emitter_bound")

        # 3. Per-subgraph compilation under the flexible constraint.
        cache = self._subgraph_compiler.cache
        cache_before = cache.stats.snapshot() if cache is not None else None
        # Leaves too large to canonicalise sample candidate orders from one
        # generator per compile, so the same graph always gets the same circuit.
        direct_rng = make_rng(config.seed)
        leaf_search_stats = LeafSearchStats()
        subgraph_results: list[dict[int, SubgraphCompilationResult]] = []
        for block in partition.blocks:
            subgraph = working_graph.induced_subgraph(block)
            subgraph_results.append(
                self._subgraph_compiler.compile_flexible(
                    subgraph, rng=direct_rng, stats=leaf_search_stats
                )
            )
        subgraph_cache_stats = (
            cache.stats.delta(cache_before) if cache is not None else None
        )
        lap("leaf_search")

        # 4. Recombination plan.
        schedule_plan: SchedulePlan | None = None
        if len(partition.blocks) > 1:
            scheduler = SubgraphScheduler(emitter_limit)
            schedule_plan = scheduler.schedule(subgraph_results)
            candidate_plans = self._candidate_processing_plans(schedule_plan, working_graph)
        else:
            only = subgraph_results[0][min(subgraph_results[0])]
            candidate_plans = [[(only.processing_order, ())]]
        if ordering_search is not None:
            # The optimised emission ordering, replayed as a whole-graph
            # processing plan (processing order is reversed emission time).
            candidate_plans.append(
                [(list(reversed(ordering_search.ordering)), ())]
            )
        lap("recombination_plan")

        # 5. Global reduction with emitter affinity; among the candidate block
        # orderings produced by the scheduler, keep the one with the fewest
        # emitter-emitter CNOTs (ties broken by photon-loss duration and
        # overall duration — the paper's hardware-aware objective).
        sequence, circuit = self._best_global_reduction(
            working_graph, candidate_plans, emitter_limit
        )
        lap("global_reduction")

        # 6. LC correction gates (map |G'> back to |G>).
        circuit = self._append_lc_corrections(circuit, partition, sequence)
        lap("lc_correction")

        # 7. Gate-level scheduling, metrics, optional verification.
        schedule = schedule_circuit(
            circuit,
            durations=config.hardware.durations,
            policy="alap",
        )
        metrics = compute_metrics(
            circuit,
            schedule=schedule,
            loss_model=config.hardware.loss_model(),
        )
        lap("schedule_metrics")
        verified = None
        if config.verify:
            verified = verify_circuit_generates(
                circuit,
                target_graph,
                photon_of_vertex=sequence.photon_of_vertex,
            )
            if not verified:
                raise RuntimeError(
                    "compilation failed verification — this indicates a bug in the "
                    "reduction engine or the LC correction stage"
                )
        lap("verify")

        elapsed = stage_started - started
        return CompilationResult(
            circuit=circuit,
            sequence=sequence,
            schedule=schedule,
            metrics=metrics,
            partition=partition,
            subgraph_results=subgraph_results,
            schedule_plan=schedule_plan,
            minimum_emitters=n_e_min,
            emitter_limit=emitter_limit,
            compile_time_seconds=elapsed,
            verified=verified,
            ordering_strategy=config.ordering_strategy,
            ordering_peak=(
                ordering_search.peak_height if ordering_search is not None else None
            ),
            subgraph_cache_stats=subgraph_cache_stats,
            leaf_search_stats=leaf_search_stats,
            stage_seconds=stage_seconds,
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _candidate_processing_plans(
        self, schedule_plan: SchedulePlan, working_graph: GraphState
    ) -> list[list[tuple[list[Vertex], tuple[int, ...]]]]:
        """Block-ordering candidates explored by the recombination stage.

        The primary candidate follows the Tetris plan (latest block first in
        reversed time).  The alternatives — the mirrored order, a round-robin
        interleaving of the blocks, and two monolithic whole-graph orders
        (reverse-natural and low-degree-first) — cover graphs where the stem
        structure is so dense that the block decomposition itself is not the
        best recombination; the compiler picks the winner by actual
        emitter-emitter CNOT count and photon-loss duration.
        """
        ordered = [
            (item.result.processing_order, tuple(item.emitter_ids))
            for item in schedule_plan.reversed_processing_plan()
        ]
        candidates = [ordered, list(reversed(ordered))]

        # Round-robin interleaving: one photon from each block in turn.  The
        # emitter affinity of each photon is kept from its own block.
        queues = [deque(order) for order, _ in ordered]
        affinities = [affinity for _, affinity in ordered]
        interleaved: list[tuple[list[Vertex], tuple[int, ...]]] = []
        while any(queues):
            for queue, affinity in zip(queues, affinities):
                if queue:
                    interleaved.append(([queue.popleft()], affinity))
        candidates.append(interleaved)

        # Monolithic fall-backs over the whole (LC-transformed) graph.
        vertices = working_graph.vertices()
        degree = {v: working_graph.degree(v) for v in vertices}
        candidates.append([(list(reversed(vertices)), ())])
        candidates.append(
            [(sorted(vertices, key=lambda v: (degree[v], repr(v))), ())]
        )
        return candidates

    def _best_global_reduction(
        self,
        working_graph: GraphState,
        candidate_plans: list[list[tuple[list[Vertex], tuple[int, ...]]]],
        emitter_limit: int,
    ) -> tuple[ReductionSequence, Circuit]:
        """Run the global reduction for every candidate plan and keep the best.

        Candidates are ranked straight from their op sequences
        (:func:`repro.core.plan_scoring.score_sequence` — bit-identical to
        the historical circuit-backed metrics); only the winning plan is
        materialised into a :class:`Circuit`.
        """
        config = self.config
        best: tuple[tuple[float, float, float], ReductionSequence] | None = None
        for plan in candidate_plans:
            sequence = self._global_reduction(working_graph, plan, emitter_limit)
            key = score_sequence(
                sequence,
                durations=config.hardware.durations,
                cnot_cutoff=best[0][0] if best is not None else None,
            )
            if key is not None and (best is None or key < best[0]):
                best = (key, sequence)
        assert best is not None
        return best[1], best[1].to_circuit()

    def _global_reduction(
        self,
        working_graph: GraphState,
        processing_plan: list[tuple[list[Vertex], tuple[int, ...]]],
        emitter_limit: int,
    ) -> ReductionSequence:
        """Reduce the full graph following the per-block processing orders.

        Runs on the backend-selected working-graph representation (the packed
        bitset fast path by default; the dict-based oracle on ``dense``).
        """
        state = make_reduction_state(working_graph, emitter_budget=emitter_limit)
        for block_number, (order, preferred) in enumerate(processing_plan):
            strategy = GreedyReductionStrategy(
                emitter_budget=emitter_limit,
                preferred_emitters=preferred,
            )
            tag = f"block:{block_number}"
            for vertex in order:
                photon = state.photon_of_vertex[vertex]
                if not state.photon_in_graph(photon):  # pragma: no cover - defensive
                    continue
                reduce_and_free(state, photon, strategy, tag=tag)
        return state.finish(tag="stem")

    def _append_lc_corrections(
        self,
        circuit: Circuit,
        partition: PartitionResult,
        sequence: ReductionSequence,
    ) -> Circuit:
        """Append single-qubit gates mapping the LC-equivalent state back to the target."""
        if not partition.lc_operations:
            return circuit
        corrected = circuit.copy()
        gates = lc_correction_gates(partition.lc_operations, inverse=True)
        for name, vertex in gates:
            photon_index = sequence.photon_of_vertex[vertex]
            corrected.append(
                Gate(
                    name=GateName[name],
                    qubits=(photon_qubit(photon_index),),
                    tag="lc",
                )
            )
        return corrected


def compile_graph(
    target_graph: GraphState,
    config: CompilerConfig | None = None,
    **overrides,
) -> CompilationResult:
    """Compile a graph state with the paper's framework in one call.

    The functional entry point for scripts and notebooks: it builds an
    :class:`EmitterCompiler` from ``config`` (or the defaults) with any
    keyword overrides applied and compiles ``target_graph``.

    Parameters
    ----------
    target_graph : GraphState
        The photonic graph state to generate.
    config : CompilerConfig | None, optional
        Base configuration; ``None`` uses the paper's defaults.
    **overrides
        Any :class:`repro.core.config.CompilerConfig` field, applied on top
        of ``config`` (e.g. ``verify=True``, ``gf2_backend="dense"``,
        ``emitter_limit_factor=2.0``).

    Returns
    -------
    CompilationResult
        Circuit, schedule, metrics and partition of the compilation.

    Examples
    --------
    >>> from repro import compile_graph, lattice_graph
    >>> result = compile_graph(lattice_graph(3, 4), verify=True)
    >>> result.verified
    True
    """
    if config is None:
        config = CompilerConfig()
    if overrides:
        config = config.with_overrides(**overrides)
    return EmitterCompiler(config).compile(target_graph)
