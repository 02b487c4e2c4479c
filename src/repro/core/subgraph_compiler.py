"""Per-subgraph compilation (paper §IV.B).

Each subgraph (leaf) produced by the partitioner is small enough
(``g_max = 7`` by default) that a search over photon processing orders is
affordable.  The compiler

1. enumerates candidate processing orders — exhaustively for very small
   subgraphs, otherwise a mix of degree-based heuristics (the paper
   prioritises low-degree vertices), BFS orders and random samples;
2. runs the greedy reduction for every candidate as one depth-first walk
   over the trie of candidate orders: a prefix shared by several candidates
   is reduced once (one reduction state, snapshot and restored at branching
   nodes), and a subtree whose emitter-emitter gate count is already above
   the best complete order's is cut — the count never falls along a prefix,
   so the cut never loses a winner; the circuits with the minimal number of
   emitter-emitter CNOTs are kept;
3. breaks ties by the average photon-loss duration of the ALAP-scheduled
   circuit (the paper's hardware-aware objective), then by the earliest
   candidate;
4. repeats the above for several emitter budgets (the *flexible resource
   constraint*: ``n_e^min`` up to ``n_e^min + FLEXIBLE_EMITTER_SLACK``), so the
   scheduler can later trade emitters for parallelism.

**Isomorphism memoization.**  Structured targets hand the partitioner the
same small graph over and over up to vertex relabeling, so the search runs
in *canonical space*: the leaf is canonically relabelled
(:mod:`repro.graphs.canonical_form`), the search runs on the canonical
representative with an RNG derived from the canonical key (identical leaves
always run identical searches, regardless of partition order or labels), and
the winning order/sequence/metrics are memoized in the
:mod:`repro.core.compile_cache` keyed by canonical key, emitter budget and
the search-relevant config fingerprint.  On a hit the cached sequence is
remapped through the canonical permutation instead of re-searched; results
are bit-identical to a cache-off compile by construction.  Graphs too large
or too symmetric to canonicalise cheaply fall back to the direct
(uncached) search.

**Leaf atlas.**  Under the default configuration a cache miss on a leaf of
up to 7 vertices is answered from :mod:`repro.core.leaf_atlas`, the search
precomputed for every such graph: the stored order is replayed with one
reduction pass instead of searched.  ``subgraph_cache=False`` always runs
the live search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from repro.circuit.circuit import Circuit
from repro.circuit.metrics import CircuitMetrics, compute_metrics
from repro.circuit.timing import GateDurations
from repro.core.compile_cache import (
    CachedCompilation,
    SubgraphCompileCache,
    config_fingerprint,
    get_process_cache,
)
from repro.core.config import CompilerConfig
from repro.core.ordering import optimize_emission_ordering
from repro.core.packed_reduction import make_reduction_state
from repro.core.plan_scoring import score_sequence
from repro.core.reduction import ReductionSequence
from repro.core.strategies import GreedyReductionStrategy, greedy_reduce, reduce_and_free
from repro.graphs.canonical_form import (
    CanonicalForm,
    CanonicalizationBudgetError,
    canonical_form,
    canonical_key_digest,
)
from repro.graphs.entanglement import minimum_emitters
from repro.graphs.graph_state import GraphState
from repro.utils.misc import make_rng

__all__ = [
    "LeafSearchStats",
    "SubgraphCompilationResult",
    "SubgraphCompiler",
    "candidate_processing_orders",
]

Vertex = Hashable

#: Leaves above this size skip canonicalisation (and hence the cache): the
#: individualization search is sized for the ``g_max ≈ 7`` leaf regime, and
#: larger graphs essentially never repeat anyway.
CANONICAL_MAX_VERTICES = 12

#: The flexible resource constraint: every leaf is compiled at its minimal
#: emitter count ``n_e^min`` and at up to this many extra emitters.
FLEXIBLE_EMITTER_SLACK = 2

#: The search config the leaf atlas is generated under; any other config
#: never reads the table.
_ATLAS_FINGERPRINT = config_fingerprint(CompilerConfig())


@dataclass
class SubgraphCompilationResult:
    """Best compilation found for one subgraph under one emitter budget."""

    subgraph: GraphState
    processing_order: list[Vertex]
    sequence: ReductionSequence
    circuit: Circuit
    metrics: CircuitMetrics
    emitter_budget: int
    num_emitters_used: int
    orders_evaluated: int

    @property
    def num_photons(self) -> int:
        return self.subgraph.num_vertices

    @property
    def num_emitter_emitter_cnots(self) -> int:
        return self.metrics.num_emitter_emitter_cnots

    @property
    def duration(self) -> float:
        return self.metrics.duration

    @property
    def priority(self) -> float:
        """The scheduling priority ``P_c = n_p / T_c`` of the paper."""
        if self.duration <= 0:
            return float("inf")
        return self.num_photons / self.duration

    def emission_order(self) -> list[Vertex]:
        """Subgraph vertices in forward emission order."""
        return list(reversed(self.processing_order))


def candidate_processing_orders(
    subgraph: GraphState,
    max_candidates: int,
    exhaustive_threshold: int,
    rng: np.random.Generator,
) -> list[list[Vertex]]:
    """Candidate reversed-time processing orders for a subgraph.

    Always includes the paper's low-degree-first heuristic; small subgraphs
    are enumerated exhaustively (subject to ``max_candidates``).
    """
    vertices = subgraph.vertices()
    n = len(vertices)
    if n <= 1:
        return [list(vertices)]

    candidates: list[list[Vertex]] = []
    seen: set[tuple[Vertex, ...]] = set()

    def add(order: Sequence[Vertex]) -> None:
        """Record one candidate order, deduplicated, up to the budget."""
        key = tuple(order)
        if key not in seen and len(candidates) < max_candidates:
            seen.add(key)
            candidates.append(list(order))

    if n <= exhaustive_threshold:
        for permutation in itertools.permutations(vertices):
            add(permutation)
            if len(candidates) >= max_candidates:
                break
        return candidates

    degree = {v: subgraph.degree(v) for v in vertices}
    add(sorted(vertices, key=lambda v: (degree[v], repr(v))))
    add(sorted(vertices, key=lambda v: (-degree[v], repr(v))))
    add(list(reversed(vertices)))
    add(list(vertices))

    # BFS-based orders from a few seeds (locality-preserving emission).
    for seed_vertex in sorted(vertices, key=lambda v: -degree[v])[:4]:
        bfs_order = [seed_vertex]
        visited = {seed_vertex}
        frontier = [seed_vertex]
        while frontier:
            next_frontier = []
            for u in frontier:
                for w in sorted(subgraph.neighbors(u), key=repr):
                    if w not in visited:
                        visited.add(w)
                        bfs_order.append(w)
                        next_frontier.append(w)
            frontier = next_frontier
        for leftover in vertices:
            if leftover not in visited:
                bfs_order.append(leftover)
                visited.add(leftover)
        add(bfs_order)
        add(list(reversed(bfs_order)))

    while len(candidates) < max_candidates:
        permutation = list(vertices)
        rng.shuffle(permutation)
        add(permutation)
        if len(seen) >= max_candidates * 4:  # pragma: no cover - safety valve
            break
    return candidates


@dataclass
class LeafSearchStats:
    """Work counters of leaf-order searches, summed over the searches run.

    ``orders`` counts candidate orders, so a search that reduced every
    candidate separately would take ``orders × leaf size`` photon steps;
    ``steps`` counts the steps the shared-prefix walk took.
    ``orders_scored`` counts complete orders handed to
    :func:`~repro.core.plan_scoring.score_sequence`, and ``subtrees_pruned``
    the prefixes cut by the emitter-emitter gate bound.  A compile-cache hit
    runs no search and adds nothing; ``atlas_hits`` counts the searches
    answered from the leaf atlas, which add nothing else either.
    """

    orders: int = 0
    steps: int = 0
    orders_scored: int = 0
    subtrees_pruned: int = 0
    atlas_hits: int = 0


class _OrderTrieWalk:
    """One leaf search: a depth-first walk over the trie of candidate orders.

    A single reduction state serves the whole search.  Every photon step is
    :func:`~repro.core.strategies.reduce_and_free`, the step of
    :func:`~repro.core.strategies.greedy_reduce`; a node with more than one
    child snapshots the state once and restores it before each further
    child, so a prefix shared by several candidates is reduced once.
    Children are visited in order of their first candidate index.

    **Bound.**  Emitter-emitter edges disappear only through ``DISCONNECT``
    (one edge per op): photon rewrites only add bits to emitter rows or clear
    photon bits, and an emitter is freed only with an empty row.  Every edge
    still present must be disconnected before the reduction ends, so
    ``DISCONNECT ops so far + emitter-emitter edges now`` (the state's
    ``ee_gate_bound()``) never exceeds the ee-gate count of any completion,
    never falls along a prefix, and equals the exact count at a complete
    order.  A subtree whose bound is strictly above the incumbent's count
    cannot hold a winner and is cut; a tie is still scored on loss and
    duration.

    **Budget pressure.**  ``compile_flexible`` reuses a result for larger
    budgets when ``search_max < budget``, so that answer must not depend on
    the cuts.  Allocation never falls along a prefix either, so nothing is
    cut until some prefix has allocated ``budget`` emitters (counted as
    ``max(allocated, 1)``, like ``ReductionSequence.num_emitters``); from
    then on every candidate is known to be at or above the budget, and the
    search reports ``min(largest allocation seen, budget)``.
    """

    def __init__(
        self,
        graph: GraphState,
        strategy: GreedyReductionStrategy,
        durations: GateDurations,
        stats: LeafSearchStats,
    ):
        self.state = make_reduction_state(graph, emitter_budget=strategy.emitter_budget)
        self.strategy = strategy
        self.durations = durations
        self.stats = stats
        self.budget = strategy.emitter_budget
        self.search_max = 1
        #: ``(score key, candidate index, sequence)`` of the incumbent.
        self.best: tuple[tuple[float, float, float], int, ReductionSequence] | None = None

    def run(self, orders: list[list[Vertex]]) -> tuple[int, ReductionSequence, int]:
        """``(winning candidate index, its sequence, search_max_emitters)``."""
        trie: dict = {}
        for index, order in enumerate(orders):
            node = trie
            for vertex in order[:-1]:
                node = node.setdefault(vertex, {})
            node[order[-1]] = index
        self.stats.orders += len(orders)
        self._walk(trie)
        assert self.best is not None
        _, index, sequence = self.best
        return index, sequence, min(self.search_max, self.budget)

    def _walk(self, node: dict) -> None:
        """Walk every subtree of ``node``; the state holds ``node``'s prefix.

        A child is a subtree dict, or the candidate index of a complete
        order.  Chains of only children are followed without recursing.
        """
        state = self.state
        photon_of = state.photon_of_vertex
        strategy = self.strategy
        stats = self.stats
        snapshot = state.snapshot() if len(node) > 1 else None
        for position, (vertex, child) in enumerate(node.items()):
            if position:
                state.restore(snapshot)
            while True:
                reduce_and_free(state, photon_of[vertex], strategy)
                stats.steps += 1
                if state.num_emitters_allocated > self.search_max:
                    self.search_max = state.num_emitters_allocated
                complete = not isinstance(child, dict)
                best = self.best
                if best is not None and (complete or self.search_max >= self.budget):
                    if state.ee_gate_bound() > best[0][0]:
                        if not complete:
                            stats.subtrees_pruned += 1
                        break
                if complete:
                    self._score(child)
                    break
                if len(child) > 1:
                    self._walk(child)
                    break
                ((vertex, child),) = child.items()

    def _score(self, index: int) -> None:
        """Finish the complete order ``index`` and keep it if it wins.

        The key is read from the state's live op list; the
        :class:`ReductionSequence` is built only for a new incumbent.
        """
        state = self.state
        state.release_all_emitters()
        key = score_sequence(state.operations, durations=self.durations)
        self.stats.orders_scored += 1
        if self.best is None or (key, index) < self.best[:2]:
            self.best = (key, index, state.finish())


class SubgraphCompiler:
    """Search-based compiler for a single subgraph.

    Parameters
    ----------
    config : CompilerConfig | None, optional
        Compilation knobs; ``None`` uses the defaults.
    cache : SubgraphCompileCache | None, optional
        Explicit compile cache (tests, dedicated pools).  By default the
        process-wide cache of :func:`repro.core.compile_cache.get_process_cache`
        is used when ``config.subgraph_cache`` is enabled.  The leaf atlas
        answers cache misses only when ``config.subgraph_cache`` is enabled
        and the search config is the default one, so an explicit cache with
        the switch off still searches every miss.
    """

    def __init__(
        self,
        config: CompilerConfig | None = None,
        cache: SubgraphCompileCache | None = None,
    ):
        self.config = config if config is not None else CompilerConfig()
        self._fingerprint = config_fingerprint(self.config)
        if cache is not None:
            self.cache = cache
        elif self.config.subgraph_cache:
            self.cache = get_process_cache()
        else:
            self.cache = None
        #: Leaf-atlas replays need somewhere to keep their entries, and
        #: ``subgraph_cache=False`` promises the live search.
        self._atlas_enabled = (
            self.cache is not None
            and self.config.subgraph_cache
            and self._fingerprint == _ATLAS_FINGERPRINT
        )

    # ------------------------------------------------------------------ #

    def _optimised_ordering(self, subgraph: GraphState):
        """Ordering-search result for ``subgraph`` (``None`` when disabled)."""
        config = self.config
        if config.ordering_strategy == "natural" or subgraph.num_vertices <= 1:
            return None
        return optimize_emission_ordering(
            subgraph,
            strategy=config.ordering_strategy,
            seed=config.seed,
            iterations=config.ordering_iterations,
        )

    def _canonicalize(self, subgraph: GraphState) -> CanonicalForm | None:
        """Canonical form of a leaf, or ``None`` when out of the cheap regime."""
        if subgraph.num_vertices > CANONICAL_MAX_VERTICES:
            return None
        try:
            return canonical_form(subgraph)
        except CanonicalizationBudgetError:  # pragma: no cover - needs n > 12
            return None

    def _derived_rng(self, canonical_key: tuple[int, int]) -> np.random.Generator:
        """Order-search RNG derived from the canonical key and the config seed.

        Identical subgraphs therefore always sample identical candidate
        orders, no matter how many leaves were compiled before them — the
        property that makes the compile cache coherent (and leaf results
        independent of partition order).
        """
        digest = canonical_key_digest(canonical_key)
        return make_rng(
            np.random.default_rng(
                [
                    self.config.seed & 0xFFFFFFFF,
                    int(digest[:16], 16),
                    int(digest[16:32], 16),
                ]
            )
        )

    # ------------------------------------------------------------------ #
    # The ordering search (shared by the canonical and direct paths)
    # ------------------------------------------------------------------ #

    def _search(
        self,
        graph: GraphState,
        emitter_budget: int,
        seeded_order: Sequence[Vertex] | None,
        rng: np.random.Generator,
        stats: LeafSearchStats | None = None,
    ) -> tuple[list[Vertex], ReductionSequence, int, int]:
        """Best processing order for ``graph`` under ``emitter_budget``.

        Walks the trie of candidate orders (:class:`_OrderTrieWalk`) and
        returns the candidate with the smallest ``(score key, candidate
        index)`` — the same order, sequence and key as reducing and scoring
        every candidate separately, where the earliest candidate wins a tie.

        Returns ``(order, sequence, orders_evaluated, search_max_emitters)``.
        ``orders_evaluated`` is the number of candidates; the last entry is
        ``min(largest emitter pool any candidate allocated, emitter_budget)``
        — strictly below the budget, the search provably never felt budget
        pressure and its result holds for every larger budget.  The work
        done is added to ``stats``.
        """
        config = self.config
        strategy = GreedyReductionStrategy(emitter_budget=emitter_budget)
        orders = candidate_processing_orders(
            graph,
            max_candidates=config.max_order_candidates,
            exhaustive_threshold=config.exhaustive_order_threshold,
            rng=rng,
        )
        if seeded_order is not None:
            candidate = list(seeded_order)
            if candidate in orders:
                orders.remove(candidate)
            orders.insert(0, candidate)

        walk = _OrderTrieWalk(
            graph,
            strategy,
            config.hardware.durations,
            stats if stats is not None else LeafSearchStats(),
        )
        index, sequence, search_max = walk.run(orders)
        return list(orders[index]), sequence, len(orders), search_max

    def _search_canonical(
        self,
        canonical: CanonicalForm,
        canon_graph: GraphState,
        emitter_budget: int,
        canon_seed: tuple[int, ...] | None,
        stats: LeafSearchStats | None,
    ) -> CachedCompilation:
        """Run the search on the canonical representative; package the entry."""
        order, sequence, evaluated, search_max = self._search(
            canon_graph,
            emitter_budget,
            list(canon_seed) if canon_seed is not None else None,
            self._derived_rng(canonical.key),
            stats,
        )
        return self._entry(order, sequence, evaluated, search_max)

    def _replay_atlas(
        self,
        canonical: CanonicalForm,
        emitter_budget: int,
        stats: LeafSearchStats | None,
    ) -> CachedCompilation | None:
        """The search's entry rebuilt from the leaf atlas, or ``None`` on a miss."""
        # Imported here so that `python -m repro.core.leaf_atlas` runs the
        # only copy of that module.
        from repro.core.leaf_atlas import get_atlas

        atlas = get_atlas()
        if not atlas.usable(self._fingerprint):
            return None
        found = atlas.lookup(canonical.key, emitter_budget)
        if found is None:
            return None
        order, search_max, evaluated = found
        sequence = greedy_reduce(
            canonical.build_graph(),
            order,
            GreedyReductionStrategy(emitter_budget=emitter_budget),
        )
        if stats is not None:
            stats.atlas_hits += 1
        return self._entry(order, sequence, evaluated, search_max)

    def _entry(
        self,
        order: Sequence[int],
        sequence: ReductionSequence,
        evaluated: int,
        search_max: int,
    ) -> CachedCompilation:
        """Package a canonical-space search result with its circuit and metrics."""
        circuit = sequence.to_circuit()
        metrics = compute_metrics(
            circuit,
            durations=self.config.hardware.durations,
            policy="alap",
        )
        return CachedCompilation(
            processing_order=tuple(order),
            operations=tuple(sequence.operations),
            num_photons=sequence.num_photons,
            num_emitters=sequence.num_emitters,
            emitters_over_budget=sequence.emitters_over_budget,
            metrics=metrics,
            orders_evaluated=evaluated,
            search_max_emitters=search_max,
            _circuit=circuit,
        )

    def _result_from_entry(
        self,
        subgraph: GraphState,
        canonical: CanonicalForm,
        entry: CachedCompilation,
        emitter_budget: int,
    ) -> SubgraphCompilationResult:
        """Remap a canonical-space entry back onto ``subgraph``'s labels.

        Photon indices *are* canonical labels (``photon_of_vertex[v] =
        to_canonical[v]``), so the cached op sequence and circuit carry over
        unchanged; only the processing order needs the inverse permutation.
        """
        order = [canonical.from_canonical[c] for c in entry.processing_order]
        sequence = ReductionSequence(
            operations=list(entry.operations),
            num_photons=entry.num_photons,
            num_emitters=entry.num_emitters,
            photon_of_vertex={
                v: canonical.to_canonical[v] for v in subgraph.vertices()
            },
            emitters_over_budget=entry.emitters_over_budget,
        )
        return SubgraphCompilationResult(
            subgraph=subgraph,
            processing_order=order,
            sequence=sequence,
            # Hand out a (cheap, leaf-sized) copy: Circuit is mutable, and a
            # caller editing a result must never corrupt the shared cache
            # entry behind every other compilation in the process.
            circuit=entry.circuit().copy(),
            metrics=entry.metrics,
            emitter_budget=emitter_budget,
            num_emitters_used=entry.num_emitters,
            orders_evaluated=entry.orders_evaluated,
        )

    # ------------------------------------------------------------------ #
    # Compilation entry points
    # ------------------------------------------------------------------ #

    def compile(
        self,
        subgraph: GraphState,
        emitter_budget: int | None = None,
        seeded_order: Sequence[Vertex] | None = None,
    ) -> SubgraphCompilationResult:
        """Compile ``subgraph`` under a single emitter budget.

        ``seeded_order`` injects a precomputed processing order at the front
        of the candidate pool; when omitted and an ordering strategy is
        configured, the emission-ordering optimiser provides one.
        """
        result, _ = self._compile_with_info(subgraph, emitter_budget, seeded_order)
        return result

    def _compile_with_info(
        self,
        subgraph: GraphState,
        emitter_budget: int | None = None,
        seeded_order: Sequence[Vertex] | None = None,
        canonical: CanonicalForm | None = None,
        rng: np.random.Generator | None = None,
        stats: LeafSearchStats | None = None,
    ) -> tuple[SubgraphCompilationResult, int]:
        """:meth:`compile` plus the search's ``search_max_emitters``.

        The work of a search that runs (none on a cache hit) is added to
        ``stats``.  A miss in the cache tiers goes to the leaf atlas when the
        cache is on and no seeded order is in play.  An atlas entry goes to
        the memory tier only: on disk it would repeat what the package ships.
        """
        if subgraph.num_vertices == 0:
            raise ValueError("cannot compile an empty subgraph")
        if emitter_budget is None:
            emitter_budget = minimum_emitters(subgraph)
        if canonical is None:
            canonical = self._canonicalize(subgraph)
        if canonical is None:
            return self._compile_direct(
                subgraph, emitter_budget, seeded_order, rng, stats
            )

        canon_graph: GraphState | None = None
        if seeded_order is not None:
            canon_seed: tuple[int, ...] | None = tuple(
                canonical.to_canonical[v] for v in seeded_order
            )
        else:
            canon_seed = None
            if self.config.ordering_strategy != "natural":
                # Seed the search with the incremental-engine ordering
                # optimiser, run in canonical space so it is label-invariant:
                # its low-peak emission ordering, replayed in reversed time,
                # is a strong processing-order candidate under tight budgets.
                canon_graph = canonical.build_graph()
                optimised = self._optimised_ordering(canon_graph)
                if optimised is not None:
                    canon_seed = tuple(reversed(optimised.ordering))

        key = (canonical.key, emitter_budget, canon_seed, self._fingerprint)
        entry = self.cache.get(key) if self.cache is not None else None
        if entry is None and self._atlas_enabled and canon_seed is None:
            entry = self._replay_atlas(canonical, emitter_budget, stats)
            if entry is not None:
                self.cache.put(key, entry, persist=False)
        if entry is None:
            if canon_graph is None:
                canon_graph = canonical.build_graph()
            entry = self._search_canonical(
                canonical, canon_graph, emitter_budget, canon_seed, stats
            )
            if self.cache is not None:
                self.cache.put(key, entry)
        result = self._result_from_entry(subgraph, canonical, entry, emitter_budget)
        return result, entry.search_max_emitters

    def _compile_direct(
        self,
        subgraph: GraphState,
        emitter_budget: int,
        seeded_order: Sequence[Vertex] | None,
        rng: np.random.Generator | None,
        stats: LeafSearchStats | None,
    ) -> tuple[SubgraphCompilationResult, int]:
        """The uncached search on the subgraph's own labels (large leaves).

        ``rng`` samples the candidate orders; ``None`` seeds a fresh one from
        ``config.seed``, so a standalone call does not depend on history.
        """
        if seeded_order is None:
            optimised = self._optimised_ordering(subgraph)
            if optimised is not None:
                seeded_order = list(reversed(optimised.ordering))
        order, sequence, evaluated, search_max = self._search(
            subgraph,
            emitter_budget,
            seeded_order,
            rng if rng is not None else make_rng(self.config.seed),
            stats,
        )
        circuit = sequence.to_circuit()
        metrics = compute_metrics(
            circuit,
            durations=self.config.hardware.durations,
            policy="alap",
        )
        result = SubgraphCompilationResult(
            subgraph=subgraph,
            processing_order=order,
            sequence=sequence,
            circuit=circuit,
            metrics=metrics,
            emitter_budget=emitter_budget,
            num_emitters_used=sequence.num_emitters,
            orders_evaluated=evaluated,
        )
        return result, search_max

    def compile_flexible(
        self,
        subgraph: GraphState,
        rng: np.random.Generator | None = None,
        stats: LeafSearchStats | None = None,
    ) -> dict[int, SubgraphCompilationResult]:
        """Compile under the flexible resource constraint.

        Returns a map ``emitter budget -> best result`` for budgets
        ``n_e^min .. n_e^min + FLEXIBLE_EMITTER_SLACK``.  Budgets that do not change the
        outcome are still reported so the scheduler can reason uniformly;
        when a search provably never felt budget pressure (no candidate
        allocated up to the budget), the *same result object* is reported
        for every larger budget instead of re-searching — such a shared
        object keeps the ``emitter_budget`` of the search that produced it
        (the dict key, not the field, names the budget slot).

        ``rng`` samples candidate orders for a leaf too large to canonicalise
        (canonical leaves derive theirs from the canonical key).
        :class:`~repro.core.compiler.EmitterCompiler` passes one generator,
        seeded from ``config.seed`` per top-level compile, to every leaf, so
        compiling the same graph twice gives the same circuit.  ``None``
        seeds a fresh one from ``config.seed`` for this call.  The work of
        the searches this call runs is added to ``stats``.
        """
        if subgraph.num_vertices == 0:
            raise ValueError("cannot compile an empty subgraph")
        base = minimum_emitters(subgraph)
        canonical = self._canonicalize(subgraph)
        if rng is None:
            rng = make_rng(self.config.seed)
        seeded_order: list[Vertex] | None = None
        if self.config.ordering_strategy != "natural":
            # One search serves every budget: it certifies a (possibly lower)
            # per-subgraph emitter bound and seeds each order search.  Run in
            # canonical space whenever the leaf canonicalises.
            search_graph = (
                canonical.build_graph() if canonical is not None else subgraph
            )
            optimised = self._optimised_ordering(search_graph)
            if optimised is not None:
                base = min(base, max(optimised.peak_height, 1))
                ordered = list(reversed(optimised.ordering))
                if canonical is not None:
                    seeded_order = [canonical.from_canonical[c] for c in ordered]
                else:
                    seeded_order = ordered
        results: dict[int, SubgraphCompilationResult] = {}
        previous: tuple[SubgraphCompilationResult, int, int] | None = None
        for slack in range(FLEXIBLE_EMITTER_SLACK + 1):
            budget = base + slack
            if previous is not None and previous[2] < previous[1]:
                # The last search never hit its budget: a larger budget
                # cannot change any candidate's reduction, so the result is
                # provably identical — report it as-is.
                results[budget] = previous[0]
                continue
            result, search_max = self._compile_with_info(
                subgraph, budget, seeded_order, canonical, rng, stats
            )
            results[budget] = result
            previous = (result, budget, search_max)
        return results
