"""Entanglement measures of graph states used for emitter counting.

For a graph state ``|G>`` the bipartite entanglement entropy across a cut
``(A, V \\ A)`` equals the GF(2) rank of the adjacency submatrix between the
two sides (the *cut rank* of ``A``).  Li, Economou & Barnes (npj QI 2022)
showed that for a fixed photon emission order ``p_1, ..., p_n`` the minimal
number of emitters required by any deterministic emission protocol is

``N_e^min = max_i  cut_rank({p_1, ..., p_i})``

— the emitters must at every step hold the entanglement between the photons
already emitted and the rest of the state.  The paper uses this bound both to
size the emitter pool of each subgraph and to define the global resource
settings ``N_e^limit = 1.5 N_e^min`` and ``2 N_e^min``.

Two implementations back these functions (see :mod:`repro.utils.backend`):
the ``"dense"`` backend keeps the original from-scratch construction — one
bipartite matrix and one rank solve per query — as the bit-exact oracle,
while the default ``"packed"`` backend ranks the graph's cached integer-row
adjacency (:meth:`repro.graphs.graph_state.GraphState.packed_adjacency`)
and evaluates whole height functions through the incremental
:class:`repro.graphs.incremental.CutRankEngine` in a single sweep.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

import numpy as np

from repro.graphs.graph_state import GraphState
from repro.utils.backend import PACKED, resolve_backend
from repro.utils.gf2 import gf2_rank
from repro.utils.gf2_packed import rank_of_row_ints

__all__ = ["cut_rank", "height_function", "minimum_emitters"]

Vertex = Hashable


def cut_rank(
    graph: GraphState, subset: Iterable[Vertex], backend: str | None = None
) -> int:
    """GF(2) rank of the bipartite adjacency matrix between ``subset`` and the rest.

    Equals the entanglement entropy (in bits) of the graph state across the
    cut.  Vertices in ``subset`` must belong to the graph.  ``backend``
    selects the GF(2) kernel implementation (``None`` = process default; see
    :mod:`repro.utils.backend`): the packed backend ranks the graph's cached
    integer adjacency rows directly, the dense backend rebuilds the bipartite
    matrix from scratch and serves as the oracle.
    """
    subset_list = list(dict.fromkeys(subset))
    subset_set = set(subset_list)
    missing = subset_set - set(graph.vertices())
    if missing:
        raise KeyError(f"vertices not in graph: {sorted(map(repr, missing))}")
    if not subset_list or len(subset_set) == graph.num_vertices:
        return 0
    if resolve_backend(backend) == PACKED:
        packed = graph.packed_adjacency()
        subset_mask = 0
        for u in subset_list:
            subset_mask |= 1 << packed.index[u]
        complement_mask = packed.full_mask ^ subset_mask
        rows = packed.rows
        index = packed.index
        return rank_of_row_ints(rows[index[u]] & complement_mask for u in subset_list)
    complement = [v for v in graph.vertices() if v not in subset_set]
    matrix = np.zeros((len(subset_list), len(complement)), dtype=np.uint8)
    complement_index = {v: j for j, v in enumerate(complement)}
    for i, u in enumerate(subset_list):
        for w in graph.neighbors(u):
            j = complement_index.get(w)
            if j is not None:
                matrix[i, j] = 1
    return gf2_rank(matrix, backend=backend)


def height_function(
    graph: GraphState,
    ordering: Sequence[Vertex] | None = None,
    backend: str | None = None,
) -> list[int]:
    """The height function ``h(i)`` of the graph for an emission ordering.

    ``h(i)`` is the cut rank of the first ``i`` photons of ``ordering``
    (``h(0) = h(n) = 0`` for a state that starts and ends unentangled with the
    emitters).  The returned list has length ``n + 1``.

    On the packed backend the whole function is computed by one incremental
    :class:`repro.graphs.incremental.CutRankEngine` sweep (``O(n^3 / w)``);
    the dense backend keeps the historical one-rank-per-prefix evaluation as
    the oracle (``O(n^4 / w)``).
    """
    if ordering is None:
        ordering = graph.vertices()
    ordering = list(ordering)
    if set(ordering) != set(graph.vertices()) or len(ordering) != graph.num_vertices:
        raise ValueError("ordering must be a permutation of the graph's vertices")
    if resolve_backend(backend) == PACKED:
        from repro.graphs.incremental import incremental_height_function

        return incremental_height_function(graph, ordering)
    heights = [0]
    for i in range(1, len(ordering) + 1):
        heights.append(cut_rank(graph, ordering[:i], backend=backend))
    return heights


def minimum_emitters(
    graph: GraphState,
    ordering: Sequence[Vertex] | None = None,
    backend: str | None = None,
) -> int:
    """Minimal number of emitters for a deterministic emission protocol.

    This is the maximum of the height function over the given emission
    ordering (natural vertex order by default, matching the baseline
    behaviour of GraphiQ / Li et al.).  A graph with no edges still needs one
    emitter to emit the photons, hence the ``max(..., 1)`` for non-empty
    graphs.
    """
    if graph.num_vertices == 0:
        return 0
    peak = max(height_function(graph, ordering, backend=backend))
    return max(peak, 1)
