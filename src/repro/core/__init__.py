"""The paper's contribution: the divide-and-conquer emitter compiler.

Pipeline (paper §IV):

1. :mod:`repro.core.partition` — graph-state partitioning with depth-limited
   local complementation, minimising inter-subgraph ("stem") edges.
2. :mod:`repro.core.subgraph_compiler` — per-subgraph compilation via a
   bounded search over time-reversed reduction sequences, minimising
   emitter-emitter CNOTs and photon-loss duration under a flexible emitter
   constraint.
3. :mod:`repro.core.scheduler` — subgraph recombination: priority ordering
   (P_c = n_p / T_c), Tetris-style packing of emitter-usage blocks under
   ``N_e^limit`` and emitter reuse.
4. :mod:`repro.core.compiler` — the :class:`EmitterCompiler` facade that
   stitches everything into a single verified generation circuit.

The underlying exact rewrite machinery lives in :mod:`repro.core.reduction`
and is shared with the baseline compiler.
"""

from repro.core.compile_cache import (
    CachedCompilation,
    CacheStats,
    SubgraphCompileCache,
    get_process_cache,
    reset_process_cache,
)
from repro.core.reduction import (
    ReductionOp,
    ReductionSequence,
    ReductionState,
    forward_circuit_from_sequence,
)
from repro.core.packed_reduction import (
    BitsetReductionState,
    PackedReductionState,
    make_reduction_state,
)
from repro.core.plan_scoring import score_sequence
from repro.core.strategies import GreedyReductionStrategy, greedy_reduce
from repro.core.subgraph_compiler import SubgraphCompilationResult, SubgraphCompiler
from repro.core.partition import GraphPartitioner, PartitionResult
from repro.core.scheduler import ScheduledSubgraph, SubgraphScheduler, SchedulePlan
from repro.core.config import CompilerConfig
from repro.core.compiler import CompilationResult, EmitterCompiler
from repro.core.ordering import (
    ORDERING_STRATEGIES,
    OrderingResult,
    optimize_emission_ordering,
)

__all__ = [
    "CachedCompilation",
    "CacheStats",
    "SubgraphCompileCache",
    "get_process_cache",
    "reset_process_cache",
    "BitsetReductionState",
    "PackedReductionState",
    "ReductionOp",
    "ReductionSequence",
    "ReductionState",
    "forward_circuit_from_sequence",
    "make_reduction_state",
    "score_sequence",
    "GreedyReductionStrategy",
    "greedy_reduce",
    "SubgraphCompilationResult",
    "SubgraphCompiler",
    "GraphPartitioner",
    "PartitionResult",
    "ScheduledSubgraph",
    "SubgraphScheduler",
    "SchedulePlan",
    "CompilerConfig",
    "CompilationResult",
    "EmitterCompiler",
    "ORDERING_STRATEGIES",
    "OrderingResult",
    "optimize_emission_ordering",
]
