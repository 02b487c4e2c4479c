"""Tests for the isomorphism-memoized subgraph compile cache."""

from __future__ import annotations

import json
import random

import pytest

from repro.circuit.validation import verify_circuit_generates
from repro.core.compile_cache import (
    CachedCompilation,
    SubgraphCompileCache,
    config_fingerprint,
    get_process_cache,
    reset_process_cache,
)
from repro.core.compiler import compile_graph
from repro.core.config import CompilerConfig
from repro.core.reduction import ReductionOp, ReductionOpType
from repro.core.subgraph_compiler import SubgraphCompiler
from repro.graphs.generators import (
    lattice_graph,
    linear_cluster,
    ring_graph,
    star_graph,
    waxman_graph,
)
from repro.graphs.graph_state import GraphState
from repro.pipeline.jobs import GraphSpec


@pytest.fixture(autouse=True)
def fresh_process_cache():
    """Isolate every test from the process-wide cache (and clean up after)."""
    reset_process_cache()
    yield
    reset_process_cache()


#: ``CachedCompilation.as_dict()`` of the erdos-7 (seed 1) leaf under
#: ``small_config()``, written while ``ReductionOp`` was a frozen dataclass.
PRE_NAMED_TUPLE_ENTRY = """{"schema_version": 2, "processing_order": [5, 0, 3, 4, 6, 2, 1],
"operations": [["swap", 0, null, 5, ""], ["absorb_leaf", 0, null, 0, ""],
["swap", 1, null, 3, ""], ["absorb_twin", 1, null, 4, ""], ["disconnect", 0, 1, null, ""],
["absorb_dangling", 0, null, 6, ""], ["absorb_twin", 0, null, 2, ""],
["absorb_leaf", 0, null, 1, ""], ["disconnect", 0, 1, null, ""],
["free_emitter", 0, null, null, ""], ["free_emitter", 1, null, null, ""]],
"num_photons": 7, "num_emitters": 2, "emitters_over_budget": 0,
"metrics": {"num_emitter_emitter_cnots": 2, "num_emissions": 7, "num_single_qubit_gates": 13,
"num_measurements": 2, "num_gates": 24, "duration": 2.95,
"average_photon_loss_duration": 0.8285714285714286, "total_photon_exposure": 5.800000000000001,
"max_emitters_in_use": 2, "num_emitters": 2, "num_photons": 7,
"photon_survival_probability": null, "photon_loss_probability": null},
"orders_evaluated": 24, "search_max_emitters": 2}"""


def small_config(**overrides) -> CompilerConfig:
    config = CompilerConfig(max_order_candidates=24, exhaustive_order_threshold=4)
    return config.with_overrides(**overrides) if overrides else config


def relabeled(graph: GraphState, seed: int = 0) -> GraphState:
    """An isomorphic copy with shuffled labels and insertion order."""
    rng = random.Random(seed)
    vertices = graph.vertices()
    labels = [f"x{i}" for i in range(len(vertices))]
    rng.shuffle(labels)
    mapping = dict(zip(vertices, labels))
    order = list(mapping.values())
    rng.shuffle(order)
    copy = GraphState(vertices=order)
    for u, v in graph.edges():
        copy.add_edge(mapping[u], mapping[v])
    return copy


# --------------------------------------------------------------------------- #
# The cache container
# --------------------------------------------------------------------------- #


def make_entry(compiler: SubgraphCompiler, graph: GraphState) -> tuple[tuple, CachedCompilation]:
    """Compile ``graph`` through a throwaway cache and steal its one entry."""
    scratch = SubgraphCompileCache(capacity=4)
    probe = SubgraphCompiler(compiler.config, cache=scratch)
    probe.compile(graph)
    ((key, entry),) = scratch._entries.items()
    return key, entry


class TestCacheContainer:
    def test_lru_eviction_and_stats(self):
        cache = SubgraphCompileCache(capacity=2)
        compiler = SubgraphCompiler(small_config(), cache=SubgraphCompileCache(4))
        entries = [
            make_entry(compiler, graph)
            for graph in (linear_cluster(3), ring_graph(4), star_graph(5))
        ]
        for key, entry in entries:
            cache.put(key, entry)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.get(entries[0][0]) is None  # oldest was evicted
        assert cache.get(entries[2][0]) is entries[2][1]
        assert cache.stats.misses == 1 and cache.stats.hits == 1
        assert 0.0 < cache.stats.hit_rate < 1.0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SubgraphCompileCache(capacity=0)

    def test_entry_round_trips_through_json(self):
        compiler = SubgraphCompiler(small_config())
        _, entry = make_entry(compiler, waxman_graph(6, seed=3))
        clone = CachedCompilation.from_dict(entry.as_dict())
        assert clone.processing_order == entry.processing_order
        assert clone.operations == entry.operations
        assert clone.metrics == entry.metrics  # bit-exact floats via JSON repr
        assert clone.search_max_emitters == entry.search_max_emitters
        assert clone.circuit().gates == entry.circuit().gates

    def test_entry_written_before_ops_became_named_tuples_still_loads(self):
        # Disk-tier JSON from the release whose ReductionOp was a frozen
        # dataclass: the JSON form did not change, so neither did the schema.
        entry = CachedCompilation.from_dict(json.loads(PRE_NAMED_TUPLE_ENTRY))
        assert all(type(op) is ReductionOp for op in entry.operations)
        assert {op.op_type for op in entry.operations} == set(ReductionOpType) - {
            ReductionOpType.EMIT_ISOLATED
        }
        assert repr(entry.operations[3]) == "absorb_twin(e1,p4)"
        assert entry.as_dict() == json.loads(PRE_NAMED_TUPLE_ENTRY)
        # The same leaf, searched today, gives the identical entry.
        graph = GraphSpec(family="erdos", size=7, seed=1).build()
        _, fresh = make_entry(SubgraphCompiler(small_config()), graph)
        assert fresh.as_dict() == entry.as_dict()

    def test_stale_schema_version_is_rejected(self):
        compiler = SubgraphCompiler(small_config())
        _, entry = make_entry(compiler, linear_cluster(4))
        payload = entry.as_dict()
        payload["schema_version"] = -1
        with pytest.raises(ValueError):
            CachedCompilation.from_dict(payload)

    def test_disk_tier_survives_a_new_cache(self, tmp_path):
        disk = tmp_path / "subgraph-cache"
        first = SubgraphCompileCache(capacity=8, disk_dir=disk)
        compiler = SubgraphCompiler(small_config(), cache=first)
        result = compiler.compile(ring_graph(6))
        assert first.stats.stores == 1

        second = SubgraphCompileCache(capacity=8, disk_dir=disk)
        compiler2 = SubgraphCompiler(small_config(), cache=second)
        again = compiler2.compile(ring_graph(6))
        assert second.stats.disk_hits == 1
        assert second.stats.misses == 0
        assert again.metrics == result.metrics
        assert again.circuit.gates == result.circuit.gates


# --------------------------------------------------------------------------- #
# Compiler-level memoization
# --------------------------------------------------------------------------- #


class TestSubgraphMemoization:
    def test_repeat_compile_hits_the_cache(self):
        cache = SubgraphCompileCache(capacity=16)
        compiler = SubgraphCompiler(small_config(), cache=cache)
        first = compiler.compile(ring_graph(6))
        second = compiler.compile(ring_graph(6))
        assert cache.stats.hits >= 1
        assert second.metrics == first.metrics
        assert second.circuit.gates == first.circuit.gates

    def test_isomorphic_leaf_hits_and_verifies(self):
        cache = SubgraphCompileCache(capacity=16)
        compiler = SubgraphCompiler(small_config(), cache=cache)
        graph = waxman_graph(7, seed=5)
        cold = compiler.compile(graph)
        twin = relabeled(graph, seed=11)
        hits_before = cache.stats.hits
        warm = compiler.compile(twin)
        assert cache.stats.hits > hits_before
        # Same canonical search: metrics are bit-identical and the remapped
        # circuit generates the relabelled target.
        assert warm.metrics == cold.metrics
        assert verify_circuit_generates(
            warm.circuit, twin, photon_of_vertex=warm.sequence.photon_of_vertex
        )
        assert sorted(warm.processing_order, key=repr) == sorted(
            twin.vertices(), key=repr
        )

    def test_cache_off_matches_cache_on(self):
        graph = waxman_graph(8, seed=9)
        on = SubgraphCompiler(small_config(), cache=SubgraphCompileCache(16)).compile(graph)
        off = SubgraphCompiler(small_config(subgraph_cache=False)).compile(graph)
        assert SubgraphCompiler(small_config(subgraph_cache=False)).cache is None
        assert on.metrics == off.metrics
        assert on.circuit.gates == off.circuit.gates
        assert on.processing_order == off.processing_order

    def test_compile_order_does_not_change_results(self):
        # The order-search RNG is derived from the canonical key, so two
        # isomorphic leaves compile identically no matter how many leaves a
        # compiler instance processed before them (the historical shared RNG
        # stream made leaf results depend on partition order).
        graph_a = waxman_graph(7, seed=21)
        graph_b = relabeled(graph_a, seed=3)
        one = SubgraphCompiler(small_config(subgraph_cache=False))
        first_then_second = (one.compile(graph_a), one.compile(graph_b))
        two = SubgraphCompiler(small_config(subgraph_cache=False))
        second_then_first = (two.compile(graph_b), two.compile(graph_a))
        assert first_then_second[0].metrics == second_then_first[1].metrics
        assert first_then_second[1].metrics == second_then_first[0].metrics
        assert (
            first_then_second[0].circuit.gates == second_then_first[1].circuit.gates
        )

    def test_config_fingerprint_separates_entries(self):
        cache = SubgraphCompileCache(capacity=16)
        graph = ring_graph(6)
        SubgraphCompiler(small_config(), cache=cache).compile(graph)
        stores = cache.stats.stores
        SubgraphCompiler(
            small_config(max_order_candidates=12), cache=cache
        ).compile(graph)
        assert cache.stats.stores == stores + 1  # different fingerprint, new entry
        assert config_fingerprint(small_config()) != config_fingerprint(
            small_config(max_order_candidates=12)
        )
        # Cache knobs and the GF(2) backend must NOT change the fingerprint.
        assert config_fingerprint(small_config()) == config_fingerprint(
            small_config(subgraph_cache=False, gf2_backend="dense")
        )

    def test_flexible_skip_reports_the_same_object(self):
        # Star graphs reduce with one emitter under any order, so no search
        # beyond the first can feel budget pressure: budgets 2 and 3 must be
        # answered by the same result object without re-searching.
        compiler = SubgraphCompiler(small_config())
        results = compiler.compile_flexible(star_graph(6))
        budgets = sorted(results)
        assert len(budgets) == 3
        assert results[budgets[2]] is results[budgets[1]]
        for result in results.values():
            assert verify_circuit_generates(
                result.circuit,
                star_graph(6),
                photon_of_vertex=result.sequence.photon_of_vertex,
            )


# --------------------------------------------------------------------------- #
# End-to-end equivalence across the scenario zoo
# --------------------------------------------------------------------------- #

ZOO_SPECS = [
    GraphSpec(family="regular", size=12),
    GraphSpec(family="smallworld", size=12),
    GraphSpec(family="erdos", size=12),
    GraphSpec(family="percolated", size=9),
    GraphSpec(family="ghz", size=9),
    GraphSpec(family="steane", size=7),
    GraphSpec(family="surface", size=3),
]


class TestZooEquivalence:
    @pytest.mark.parametrize("spec", ZOO_SPECS, ids=lambda s: s.family)
    def test_cache_hit_compiles_match_cold_compiles(self, spec):
        graph = spec.build()
        overrides = dict(max_order_candidates=24, exhaustive_order_threshold=4)
        cold = compile_graph(graph, subgraph_cache=False, **overrides)
        compile_graph(graph, **overrides)  # prime the process cache
        warm = compile_graph(graph, **overrides)
        assert warm.subgraph_cache_stats is not None
        assert warm.subgraph_cache_stats["hit_rate"] == 1.0
        assert warm.metrics == cold.metrics
        assert warm.circuit.gates == cold.circuit.gates
        assert verify_circuit_generates(
            warm.circuit, graph, photon_of_vertex=warm.sequence.photon_of_vertex
        )


# --------------------------------------------------------------------------- #
# Surfacing: compilation results and the service health body
# --------------------------------------------------------------------------- #


class TestSurfacing:
    def test_compilation_result_carries_cache_stats(self):
        result = compile_graph(lattice_graph(3, 4))
        stats = result.subgraph_cache_stats
        assert stats is not None
        assert stats["misses"] + stats["hits"] > 0
        assert "subgraph_cache_hits" not in result.summary()  # determinism

    def test_cache_disabled_reports_none(self):
        result = compile_graph(lattice_graph(3, 4), subgraph_cache=False)
        assert result.subgraph_cache_stats is None

    def test_healthz_reports_the_subgraph_cache(self, sample_value):
        from repro.service.server import CompileService

        service = CompileService()
        try:
            body = service.compile({"family": "lattice", "size": 9, "kind": "compile"})
            assert body["ok"]
            text = service.render_metrics()
            assert sample_value(text, "repro_worker_subgraph_cache_stores_total") >= 1
            lookups = sample_value(text, "repro_worker_subgraph_cache_hits_total")
            lookups += sample_value(text, "repro_worker_subgraph_cache_misses_total")
            assert lookups >= 1
        finally:
            service.close()

    def test_service_disk_tier_survives_a_restart(self, tmp_path, monkeypatch):
        from repro.core.compile_cache import CACHE_DIR_ENV, peek_process_cache
        from repro.service.server import CompileService

        # The service exports the env var; setenv (unlike delenv on an
        # absent var) records the original state so teardown removes it.
        monkeypatch.setenv(CACHE_DIR_ENV, "")
        disk = str(tmp_path / "sg")
        payload = {"family": "lattice", "size": 9, "kind": "compile"}

        service = CompileService(subgraph_cache_dir=disk)
        try:
            assert service.compile(payload)["ok"]
            assert peek_process_cache().disk_enabled
            stores = peek_process_cache().stats.stores
            assert stores >= 1
        finally:
            service.close()

        reset_process_cache()  # simulate a redeploy: memory gone, disk stays
        service = CompileService(subgraph_cache_dir=disk)
        try:
            assert service.compile(payload)["ok"]
            stats = peek_process_cache().stats
            assert stats.disk_hits >= 1
            assert stats.misses == 0
        finally:
            service.close()

    def test_disk_tier_attaches_to_an_existing_process_cache(
        self, tmp_path, monkeypatch
    ):
        from repro.core.compile_cache import CACHE_DIR_ENV

        # A process that compiled before configuring the service still gets
        # the persistent tier (the cache must not stay silently memory-only).
        monkeypatch.setenv(CACHE_DIR_ENV, "")
        compile_graph(lattice_graph(3, 3))
        cache = get_process_cache()
        assert not cache.disk_enabled
        attached = get_process_cache(disk_dir=str(tmp_path / "late-sg"))
        assert attached is cache
        assert cache.disk_enabled
        compile_graph(lattice_graph(3, 4))  # new leaves write through
        assert any((tmp_path / "late-sg").glob("sg-*.json"))

    def test_cache_hit_results_do_not_alias_the_cached_circuit(self):
        cache = SubgraphCompileCache(capacity=8)
        compiler = SubgraphCompiler(small_config(), cache=cache)
        first = compiler.compile(ring_graph(6))
        num_gates = first.circuit.num_gates
        first.circuit._gates.append(first.circuit._gates[0])  # user mutation
        second = compiler.compile(ring_graph(6))
        assert second.circuit.num_gates == num_gates  # cache entry unharmed
