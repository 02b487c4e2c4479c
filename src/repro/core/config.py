"""Compiler configuration.

:class:`CompilerConfig` gathers every knob of the framework in one immutable
object so that experiments are reproducible from a single record.  Defaults
follow the paper's settings: subgraphs of at most ``g_max = 7`` vertices, an
LC budget of ``l = 15`` operations, the quantum-dot hardware model and an
emitter pool of ``1.5 x N_e^min``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.ordering import ORDERING_STRATEGIES
from repro.hardware.models import HardwareModel, quantum_dot
from repro.utils.backend import BACKENDS

__all__ = ["CompilerConfig"]


@dataclass(frozen=True)
class CompilerConfig:
    """Configuration of :class:`repro.core.compiler.EmitterCompiler`.

    The paper's fixed structural choices are constants, not fields: exact
    MIP partitioning up to
    :data:`~repro.core.partition.EXACT_PARTITION_MAX_VERTICES` vertices, the
    flexible budgets ``n_e^min .. n_e^min + FLEXIBLE_EMITTER_SLACK``
    (:mod:`repro.core.subgraph_compiler`), ALAP scheduling and the
    twin-absorption rewrite.

    Attributes:
        max_subgraph_size: the paper's ``g_max`` (maximum vertices per
            subgraph/leaf).
        lc_budget: the paper's ``l`` (maximum number of local-complementation
            operations used by the partitioning stage); 0 disables LC.
        emitter_limit_factor: ``N_e^limit = ceil(factor * N_e^min)``; ignored
            when ``emitter_limit`` is given explicitly.
        emitter_limit: explicit emitter budget (overrides the factor).
        max_order_candidates: maximum number of processing orders evaluated
            per subgraph by the ordering search.
        exhaustive_order_threshold: subgraphs with at most this many vertices
            are searched exhaustively over all processing orders.
        ordering_strategy: emission-ordering search over the incremental
            cut-rank engine (:mod:`repro.core.ordering`): ``"natural"`` keeps
            the historical vertex order, ``"greedy"`` runs the peak-height
            descent, ``"anneal"`` additionally refines the greedy ordering by
            simulated annealing with incremental suffix re-evaluation.  The
            optimised ordering lowers the emitter bound and joins the
            recombination candidates of the compiler.
        ordering_iterations: annealing proposal steps for
            ``ordering_strategy="anneal"``.
        subgraph_cache: memoize per-leaf ordering searches in the
            process-wide isomorphism-keyed compile cache
            (:mod:`repro.core.compile_cache`).  Leaf searches always run in
            canonical space, so toggling the cache never changes results —
            only whether repeated (isomorphic) leaves pay for the search
            again.
        deadline_ms: anytime-compilation wall-clock deadline in milliseconds
            for :mod:`repro.core.portfolio`: the portfolio compiler returns
            its verified best-so-far once the deadline is reached (the
            cheapest rung always runs, so a result is always produced).
            ``None`` disables the deadline.  Ignored by the plain
            :class:`~repro.core.compiler.EmitterCompiler`.
        portfolio_budget: step-counted anytime budget — the maximum number of
            portfolio rungs (candidate configurations) evaluated, regardless
            of wall-clock time.  Deterministic, so it is the budget of choice
            for tests and reproducible experiments; ``None`` leaves the rung
            count to ``deadline_ms`` (or runs every rung when neither is
            set).  Ignored by the plain compiler.
        verify: re-simulate compiled circuits on the stabilizer tableau.
        gf2_backend: GF(2)/tableau kernel backend pinned for the whole
            compilation (``"dense"`` or ``"packed"``); ``None`` keeps the
            process default of :mod:`repro.utils.backend`.
        hardware: hardware model (gate durations, loss).
        seed: seed for the stochastic components (ordering search sampling,
            annealing).
    """

    max_subgraph_size: int = 7
    lc_budget: int = 15
    emitter_limit_factor: float = 1.5
    emitter_limit: int | None = None
    max_order_candidates: int = 120
    exhaustive_order_threshold: int = 6
    ordering_strategy: str = "natural"
    ordering_iterations: int = 150
    subgraph_cache: bool = True
    deadline_ms: float | None = None
    portfolio_budget: int | None = None
    verify: bool = False
    gf2_backend: str | None = None
    hardware: HardwareModel = field(default_factory=quantum_dot)
    seed: int = 7

    def __post_init__(self) -> None:
        if self.max_subgraph_size < 1:
            raise ValueError("max_subgraph_size must be >= 1")
        if self.lc_budget < 0:
            raise ValueError("lc_budget must be >= 0")
        if self.emitter_limit_factor < 1.0:
            raise ValueError("emitter_limit_factor must be >= 1.0")
        if self.emitter_limit is not None and self.emitter_limit < 1:
            raise ValueError("emitter_limit must be >= 1 when given")
        if self.max_order_candidates < 1:
            raise ValueError("max_order_candidates must be >= 1")
        if self.exhaustive_order_threshold < 1:
            raise ValueError("exhaustive_order_threshold must be >= 1")
        if self.ordering_strategy not in ORDERING_STRATEGIES:
            raise ValueError(
                f"ordering_strategy must be one of {ORDERING_STRATEGIES}, "
                f"got {self.ordering_strategy!r}"
            )
        if self.ordering_iterations < 1:
            raise ValueError("ordering_iterations must be >= 1")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be > 0, got {self.deadline_ms}")
        if self.portfolio_budget is not None and self.portfolio_budget < 1:
            raise ValueError(
                f"portfolio_budget must be >= 1, got {self.portfolio_budget}"
            )
        if self.gf2_backend is not None and self.gf2_backend not in BACKENDS:
            raise ValueError(
                f"gf2_backend must be one of {BACKENDS} or None, "
                f"got {self.gf2_backend!r}"
            )

    def with_overrides(self, **kwargs) -> "CompilerConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)
