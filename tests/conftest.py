"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.graphs.generators import (
    lattice_graph,
    linear_cluster,
    random_tree,
    repeater_graph_state,
    ring_graph,
    star_graph,
    waxman_graph,
)
from repro.graphs.graph_state import GraphState


@pytest.fixture
def small_graph_zoo() -> dict[str, GraphState]:
    """A collection of small named graphs covering the main structures."""
    return {
        "single": GraphState(vertices=[0]),
        "edge": GraphState(vertices=[0, 1], edges=[(0, 1)]),
        "path4": linear_cluster(4),
        "star5": star_graph(5),
        "ring5": ring_graph(5),
        "lattice2x3": lattice_graph(2, 3),
        "tree7": random_tree(7, seed=1),
        "rgs3": repeater_graph_state(3),
        "waxman8": waxman_graph(8, seed=2),
    }


@pytest.fixture
def random_small_graphs() -> list[GraphState]:
    """Thirty random G(n, p) graphs with 2-7 vertices (deterministic seeds)."""
    rng = random.Random(12345)
    graphs = []
    for trial in range(30):
        n = rng.randint(2, 7)
        p = rng.choice([0.3, 0.5, 0.7])
        graphs.append(GraphState.from_networkx(nx.gnp_random_graph(n, p, seed=trial)))
    return graphs


@pytest.fixture
def sample_value():
    """``sample_value(exposition, name, labels="")``: the value of one sample.

    ``labels`` is the text between the braces as rendered, e.g.
    ``'worker="0"'``; the sample must exist.
    """
    from repro.service.metrics import parse_exposition

    def value(text: str, name: str, labels: str = "") -> float:
        families, _problems = parse_exposition(text)
        for family in families.values():
            for sample, sample_labels, raw in family.samples:
                if sample == name and sample_labels == labels:
                    return float(raw)
        raise KeyError(f"no sample {name}{{{labels}}} in the exposition")

    return value
