"""Micro-benchmarks of the main substrates.

These are not paper figures; they track the performance of the building
blocks (stabilizer simulation, greedy reduction, partitioning, leaf-order
search, verification) so that regressions in the substrates are visible
independently of the end-to-end sweeps.
"""

from __future__ import annotations


from repro.baseline.naive import BaselineCompiler
from repro.circuit.validation import verify_circuit_generates
from repro.core.config import CompilerConfig
from repro.core.partition import GraphPartitioner
from repro.core.strategies import greedy_reduce
from repro.core.subgraph_compiler import LeafSearchStats, SubgraphCompiler
from repro.evaluation.experiments import fast_config
from repro.graphs.generators import lattice_graph, waxman_graph
from repro.pipeline.jobs import GraphSpec
from repro.stabilizer.tableau import StabilizerState


def test_stabilizer_graph_state_construction(benchmark):
    """Tableau construction of a 40-qubit lattice graph state."""
    graph = lattice_graph(5, 8)
    edges = [(u, v) for u, v in graph.relabeled()[0].edges()]

    def build():
        return StabilizerState.from_graph_edges(40, edges)

    state = benchmark(build)
    assert state.num_qubits == 40


def test_greedy_reduction_lattice(benchmark):
    """Greedy reduction of a 30-qubit lattice."""
    graph = lattice_graph(5, 6)
    sequence = benchmark(lambda: greedy_reduce(graph))
    assert sequence.num_photons == 30


def test_partitioner_waxman(benchmark):
    """Partition + LC search on a 30-qubit Waxman graph."""
    graph = waxman_graph(30, seed=3)
    partitioner = GraphPartitioner(fast_config())
    result = benchmark(lambda: partitioner.partition(graph))
    assert sum(len(b) for b in result.blocks) == 30


def test_leaf_search_live(benchmark):
    """Every leaf search of four 64-108 vertex zoo graphs, run live.

    ``subgraph_cache=False`` keeps the cache and the leaf atlas out, so this
    times the search itself, which a default cold compile no longer runs.
    """
    config = CompilerConfig(subgraph_cache=False)
    specs = [("random", 64, 1), ("erdos", 80, 2), ("smallworld", 96, 3), ("regular", 108, 4)]
    leaves = []
    for family, size, seed in specs:
        partition = GraphPartitioner(config).partition(GraphSpec(family, size, seed).build())
        graph = partition.transformed_graph
        leaves.extend(graph.induced_subgraph(block) for block in partition.blocks)
    compiler = SubgraphCompiler(config)

    def search():
        stats = LeafSearchStats()
        for leaf in leaves:
            compiler.compile_flexible(leaf, stats=stats)
        return stats

    stats = benchmark.pedantic(search, rounds=3, iterations=1)
    assert stats.orders > 0 and stats.atlas_hits == 0


def test_end_to_end_verification(benchmark):
    """Baseline compile + stabilizer verification of a 20-qubit lattice."""
    graph = lattice_graph(4, 5)
    result = BaselineCompiler().compile(graph)

    verified = benchmark(lambda: verify_circuit_generates(result.circuit, graph))
    assert verified
