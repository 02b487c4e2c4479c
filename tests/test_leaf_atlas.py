"""Tests of the leaf atlas, the default leaf search precomputed for 1-7 vertices.

An atlas hit replays a stored processing order in place of the search, so
everything here compares it with a live search: entry by entry on a sample
that spans every size and stored budget, compile by compile on every graph
family, and (``slow``) byte for byte against a full regeneration.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc
from importlib import resources

import pytest

from repro.core import leaf_atlas
from repro.core.compile_cache import SubgraphCompileCache, reset_process_cache
from repro.core.compiler import compile_graph
from repro.core.config import CompilerConfig
from repro.core.leaf_atlas import (
    ATLAS_FILE,
    LeafAtlas,
    atlas_budgets,
    current_header,
    generate_atlas,
    get_atlas,
)
from repro.core.subgraph_compiler import LeafSearchStats, SubgraphCompiler
from repro.graphs.canonical_form import CanonicalForm, canonical_form
from repro.graphs.graph_state import GraphState
from repro.pipeline.jobs import GRAPH_FAMILIES, GraphSpec


@pytest.fixture(autouse=True)
def fresh_process_cache():
    reset_process_cache()
    yield
    reset_process_cache()


def atlas_text() -> str:
    return resources.files("repro.core").joinpath(ATLAS_FILE).read_text("ascii")


def canonical_of(key: tuple[int, int]) -> CanonicalForm:
    n = key[0]
    return CanonicalForm(key=key, to_canonical={i: i for i in range(n)},
                         from_canonical=tuple(range(n)))


def test_packaged_file_loads_through_importlib_resources():
    text = atlas_text()
    assert len(text.encode("ascii")) < 250_000
    atlas = LeafAtlas.parse(text)
    assert len(atlas.rows) == 1252  # every non-empty graph on 1-7 vertices
    assert {n for n, _ in atlas.rows} == set(range(1, 8))
    for (n, _), row in atlas.rows.items():
        assert len(row.split(" ")) == len(atlas_budgets(n))


def test_header_matches_the_current_code():
    """A stale table fails here instead of silently falling through."""
    atlas = get_atlas()
    assert atlas.header == current_header()
    assert atlas.usable(tuple(current_header()["config_fingerprint"]))


def sample_keys() -> list[tuple[tuple[int, int], int]]:
    """Three canonical keys per (size, stored budget), spread over the keys."""
    by_size: dict[int, list[tuple[int, int]]] = {}
    for key in sorted(get_atlas().rows):
        by_size.setdefault(key[0], []).append(key)
    sample = []
    for n, keys in sorted(by_size.items()):
        for budget in atlas_budgets(n):
            picks = {keys[(budget * 37 + i * len(keys)) // 3 % len(keys)] for i in range(3)}
            sample.extend((key, budget) for key in sorted(picks))
    return sample


def test_sample_covers_every_size_and_budget():
    sample = sample_keys()
    assert len(sample) >= 60
    assert {(key[0], budget) for key, budget in sample} == {
        (n, budget) for n in range(1, 8) for budget in atlas_budgets(n)
    }


@pytest.mark.parametrize("n", range(1, 8))
def test_entries_equal_a_live_search(n):
    live = SubgraphCompiler(CompilerConfig(subgraph_cache=False))
    replay = SubgraphCompiler(CompilerConfig(), cache=SubgraphCompileCache())
    for key, budget in sample_keys():
        if key[0] != n:
            continue
        canonical = canonical_of(key)
        stats = LeafSearchStats()
        entry = replay._replay_atlas(canonical, budget, stats)
        assert stats == LeafSearchStats(atlas_hits=1)
        searched = live._search_canonical(
            canonical, canonical.build_graph(), budget, None, None
        )
        assert entry.operations == searched.operations, (key, budget)
        assert entry.processing_order == searched.processing_order
        assert entry.search_max_emitters == searched.search_max_emitters
        assert entry.orders_evaluated == searched.orders_evaluated
        assert entry.metrics == searched.metrics
        assert entry.num_emitters == searched.num_emitters


def circuit_of(result):
    return [(gate.name, gate.qubits) for gate in result.circuit.gates]


def summary_of(result):
    return result.summary() | {"compile_time_seconds": 0}


FAMILY_SIZES = {"steane": 7, "surface": 3, "regular": 13, "percolated": 16, "ghz": 11}


@pytest.mark.parametrize("family", GRAPH_FAMILIES)
def test_compiles_match_the_live_search_on_every_family(family):
    graph = GraphSpec(family=family, size=FAMILY_SIZES.get(family, 14), seed=3).build()
    live = compile_graph(graph, subgraph_cache=False)
    reset_process_cache()
    replayed = compile_graph(graph)
    assert circuit_of(replayed) == circuit_of(live)
    assert replayed.sequence.operations == live.sequence.operations
    assert summary_of(replayed) == summary_of(live)
    # Every leaf of a default compile is in the atlas: nothing is searched.
    assert replayed.leaf_search_stats.orders == 0
    assert replayed.leaf_search_stats.steps == 0
    assert replayed.leaf_search_stats.atlas_hits >= 1
    assert live.leaf_search_stats.atlas_hits == 0


def test_cache_hits_come_before_atlas_replays():
    graph = GraphSpec(family="erdos", size=21, seed=4).build()
    compiler = SubgraphCompiler(CompilerConfig(), cache=SubgraphCompileCache())
    block = graph.induced_subgraph(graph.vertices()[:6])
    first = LeafSearchStats()
    compiler.compile_flexible(block, stats=first)
    assert first.atlas_hits >= 1 and first.orders == 0
    again = LeafSearchStats()
    compiler.compile_flexible(block, stats=again)
    assert again == LeafSearchStats()


def test_atlas_entries_stay_out_of_the_disk_tier(tmp_path):
    disk = tmp_path / "sg"
    cache = SubgraphCompileCache(disk_dir=disk)
    stats = LeafSearchStats()
    SubgraphCompiler(CompilerConfig(), cache=cache).compile_flexible(
        GraphState(vertices=range(5), edges=[(0, 1), (1, 2), (2, 3), (3, 4)]), stats=stats
    )
    assert stats.atlas_hits >= 1
    assert len(cache) >= 1
    assert not any(disk.glob("sg-*.json"))


def test_other_configs_and_seeded_orders_search():
    graph = GraphState(vertices=range(5), edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    other = LeafSearchStats()
    SubgraphCompiler(CompilerConfig(seed=8), cache=SubgraphCompileCache()).compile_flexible(
        graph, stats=other
    )
    assert other.atlas_hits == 0 and other.orders > 0
    seeded = LeafSearchStats()
    SubgraphCompiler(CompilerConfig(), cache=SubgraphCompileCache())._compile_with_info(
        graph, 2, seeded_order=[4, 3, 2, 1, 0], stats=seeded
    )
    assert seeded.atlas_hits == 0 and seeded.orders > 0


def test_budgets_outside_the_table_search():
    graph = GraphState(vertices=range(4), edges=[(0, 1), (1, 2), (2, 3)])
    stats = LeafSearchStats()
    SubgraphCompiler(CompilerConfig(), cache=SubgraphCompileCache())._compile_with_info(
        graph, 9, stats=stats
    )
    assert stats.atlas_hits == 0 and stats.orders > 0


def test_reset_process_cache_keeps_the_table():
    atlas = get_atlas()
    reset_process_cache()
    assert get_atlas() is atlas


def test_concurrent_first_lookups_load_one_table(monkeypatch):
    loads = []
    parse = LeafAtlas.parse.__func__

    def counted_parse(cls, text):
        loads.append(text)
        return parse(cls, text)

    monkeypatch.setattr(LeafAtlas, "parse", classmethod(counted_parse))
    seen = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            monkeypatch.setattr(leaf_atlas, "_atlas", None)
            threads = [threading.Thread(target=lambda: seen.append(get_atlas()))
                       for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(loads) == 5 and len(seen) == 40


def test_loaded_table_is_compact():
    text = atlas_text()
    tracemalloc.start()
    try:
        atlas = LeafAtlas.parse(text)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(atlas.rows) == 1252
    assert current < 2_000_000


def test_canonical_form_of_an_atlas_graph_is_in_the_table():
    graph = GraphState(vertices="abcdefg", edges=[("a", "b"), ("b", "c"), ("c", "a"), ("d", "g")])
    assert canonical_form(graph).key in get_atlas().rows


@pytest.mark.slow
def test_regeneration_reproduces_the_file_byte_for_byte():
    assert generate_atlas() == atlas_text()
