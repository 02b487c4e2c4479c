"""Canonical labeling for small graphs (isomorphism-memoized compilation).

The divide-and-conquer partitioner (paper §IV.B) emits leaves of at most
``g_max ≈ 7`` vertices, and for structured targets (lattices, surface-code
patches, regular graphs) the *same* small graph reappears over and over up to
vertex relabeling.  :func:`canonical_form` computes an exact canonical
labeling for this leaf regime so that every isomorphic copy collapses to one
hashable key — the foundation of the subgraph compile cache
(:mod:`repro.core.compile_cache`).

Algorithm (classic individualization–refinement, sized for ``n <= ~12``):

1. **colour refinement** (1-WL): vertices start coloured by degree and are
   repeatedly split by the multiset of their neighbours' colours until
   stable.  All colour ids are derived from sorted invariants, so they are
   identical for isomorphic graphs.
2. **twin collapse**: a refinement cell whose members are pairwise twins
   (identical neighbourhoods outside the pair, adjacent or not) is closed
   under transpositions — every transposition is an automorphism — so its
   internal order never affects the canonical encoding and the cell needs no
   branching.
3. **bounded individualization**: the first remaining non-singleton cell is
   split by individualizing each of its members in turn; each branch is
   refined recursively.  At the leaves (all cells singleton or twin) the
   upper-triangle adjacency bits under the induced ordering form one big
   integer; the minimum over all leaves is the canonical encoding.

The search tree's *shape* is label-invariant (branching cells are chosen by
colour id and branch counts are cell sizes), so the ``max_leaves`` safety
valve triggers consistently across relabelings — a graph either canonicalises
for every labeling or for none, which is what keeps the compile cache sound.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.graphs.graph_state import GraphState
from repro.utils.misc import iter_bits

__all__ = [
    "CANONICAL_FORM_VERSION",
    "CanonicalForm",
    "CanonicalizationBudgetError",
    "canonical_form",
    "canonical_key_digest",
]

Vertex = Hashable

#: Bump whenever the canonical labeling of some graph changes.  Everything
#: stored in canonical labels outside the process (the leaf atlas of
#: :mod:`repro.core.leaf_atlas`) records this version and is stale under
#: another.
CANONICAL_FORM_VERSION = 1

#: Default cap on canonical-search leaves.  Leaves of the partitioner are
#: ``g_max ≈ 7`` vertices; even pathologically symmetric 12-vertex graphs
#: stay far below this once twin cells are collapsed.
DEFAULT_MAX_LEAVES = 10_000


class CanonicalizationBudgetError(RuntimeError):
    """The individualization search exceeded ``max_leaves``.

    The leaf count is a label-invariant of the graph, so the error is raised
    consistently for every relabeling — callers may safely treat the graph as
    uncacheable.
    """


@dataclass(frozen=True)
class CanonicalForm:
    """The canonical labeling of one graph.

    Attributes:
        key: hashable isomorphism-invariant key — ``(n, encoding)`` where
            ``encoding`` packs the upper-triangle adjacency bits of the
            canonically relabelled graph into one integer.  Two graphs have
            equal keys iff they are isomorphic.
        to_canonical: map ``original vertex -> canonical index`` (a bijection
            onto ``0..n-1``).
        from_canonical: inverse map as a tuple (``canonical index ->
            original vertex``).
    """

    key: tuple[int, int]
    to_canonical: dict[Vertex, int]
    from_canonical: tuple[Vertex, ...]

    @property
    def num_vertices(self) -> int:
        return self.key[0]

    def canonical_edges(self) -> list[tuple[int, int]]:
        """Edges of the canonical graph, decoded from the key."""
        n, encoding = self.key
        edges = []
        bit = n * (n - 1) // 2
        for i in range(n):
            for j in range(i + 1, n):
                bit -= 1
                if (encoding >> bit) & 1:
                    edges.append((i, j))
        return edges

    def build_graph(self) -> GraphState:
        """The canonical representative on vertices ``0..n-1``."""
        return GraphState(vertices=range(self.num_vertices), edges=self.canonical_edges())


def canonical_key_digest(key: tuple[int, int]) -> str:
    """Stable hex digest of a canonical key (filenames, derived RNG seeds)."""
    n, encoding = key
    payload = f"{n}:{encoding:x}".encode("ascii")
    return hashlib.sha256(payload).hexdigest()


# --------------------------------------------------------------------------- #
# Refinement
# --------------------------------------------------------------------------- #


def _refine(n: int, rows: Sequence[int], colors: list[int]) -> list[int]:
    """1-WL colour refinement to a stable partition (invariant colour ids)."""
    while True:
        signatures = [
            (colors[v], tuple(sorted(colors[w] for w in iter_bits(rows[v]))))
            for v in range(n)
        ]
        index = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        refined = [index[signatures[v]] for v in range(n)]
        if refined == colors:
            return colors
        colors = refined


def _cells(n: int, colors: list[int]) -> list[list[int]]:
    """Refinement cells in colour order, members in index order."""
    by_color: dict[int, list[int]] = {}
    for v in range(n):
        by_color.setdefault(colors[v], []).append(v)
    return [by_color[c] for c in sorted(by_color)]


def _is_twin_cell(cell: list[int], rows: Sequence[int]) -> bool:
    """True when every pair in ``cell`` is a (closed or open) twin pair."""
    for a in range(len(cell)):
        for b in range(a + 1, len(cell)):
            u, v = cell[a], cell[b]
            mask = ~((1 << u) | (1 << v))
            if (rows[u] & mask) != (rows[v] & mask):
                return False
    return True


# --------------------------------------------------------------------------- #
# Canonical search
# --------------------------------------------------------------------------- #


def _encode(n: int, rows: Sequence[int], ordering: list[int]) -> int:
    """Upper-triangle adjacency bits under ``ordering``, packed into an int."""
    encoding = 0
    for i in range(n):
        row = rows[ordering[i]]
        for j in range(i + 1, n):
            encoding = (encoding << 1) | ((row >> ordering[j]) & 1)
    return encoding


def canonical_form(graph: GraphState, max_leaves: int = DEFAULT_MAX_LEAVES) -> CanonicalForm:
    """Compute the canonical labeling of a small graph.

    Parameters
    ----------
    graph : GraphState
        The graph to canonicalise.  Intended for the leaf regime
        (``n <= ~12``); cost grows with the graph's symmetry.
    max_leaves : int, optional
        Safety valve on the number of complete orderings examined by the
        individualization search (a label-invariant of the graph).

    Returns
    -------
    CanonicalForm
        Canonical key plus the relabeling permutation.  Two inputs receive
        equal keys iff they are isomorphic, and
        ``form.build_graph()`` is the shared canonical representative.

    Raises
    ------
    CanonicalizationBudgetError
        If the search would examine more than ``max_leaves`` orderings.
    """
    vertices = graph.vertices()
    n = len(vertices)
    if n == 0:
        return CanonicalForm(key=(0, 0), to_canonical={}, from_canonical=())
    index = {v: i for i, v in enumerate(vertices)}
    rows = [0] * n
    for u, v in graph.edges():
        i, j = index[u], index[v]
        rows[i] |= 1 << j
        rows[j] |= 1 << i

    degrees = [rows[v].bit_count() for v in range(n)]
    degree_index = {d: i for i, d in enumerate(sorted(set(degrees)))}
    initial = [degree_index[degrees[v]] for v in range(n)]

    best: tuple[int, list[int]] | None = None
    leaves = 0

    stack: list[list[int]] = [initial]
    while stack:
        colors = _refine(n, rows, stack.pop())
        cells = _cells(n, colors)
        branch_cell: list[int] | None = None
        for cell in cells:
            if len(cell) > 1 and not _is_twin_cell(cell, rows):
                branch_cell = cell
                break
        if branch_cell is None:
            leaves += 1
            if leaves > max_leaves:
                raise CanonicalizationBudgetError(
                    f"canonical search exceeded {max_leaves} orderings "
                    f"(n={n}); treat the graph as uncacheable"
                )
            # Twin cells are automorphism-closed: any internal order yields
            # the same encoding, so index order inside each cell is fine.
            ordering = [v for cell in cells for v in cell]
            encoding = _encode(n, rows, ordering)
            if best is None or encoding < best[0]:
                best = (encoding, ordering)
            continue
        for v in branch_cell:
            # Individualize v: give it a fresh colour behind its cell-mates.
            stack.append([(c * 2 + (1 if w == v else 0)) for w, c in enumerate(colors)])

    assert best is not None
    encoding, ordering = best
    from_canonical = tuple(vertices[v] for v in ordering)
    to_canonical = {vertex: pos for pos, vertex in enumerate(from_canonical)}
    return CanonicalForm(
        key=(n, encoding),
        to_canonical=to_canonical,
        from_canonical=from_canonical,
    )
