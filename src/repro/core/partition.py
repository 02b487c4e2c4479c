"""Graph-state partitioning with depth-limited local complementation (paper §IV.A).

The partitioner's objective is the number of **stem edges** — edges whose
endpoints land in different subgraphs — because every stem edge ultimately
costs emitter-emitter CNOTs in the recombined circuit.  Local complementation
(LC) can move entanglement around before cutting, often reducing the cut
dramatically (Fig. 7 of the paper), at the price of a few extra single-qubit
gates.

Two solution paths are provided:

* **exact** — the 0-1 MIP partition model (vertex-to-block assignment
  variables, block size caps, cut-edge counting) solved with the
  branch-and-bound solver of :mod:`repro.solvers.mip`.  Matching the paper's
  Gurobi model exactly (including the LC step variables) explodes even for
  small graphs, so the exact path solves the *partition* model on the current
  graph; LC is handled by the outer search loop in both paths.
* **heuristic** — greedy block growth + Kernighan–Lin refinement, wrapped in
  a depth-limited LC search that alternates "apply the best cut-reducing LC"
  and "re-partition", which is how the framework scales to the paper-sized
  benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.core.config import CompilerConfig
from repro.graphs.graph_state import GraphState
from repro.graphs.local_complementation import (
    LCOperation,
    lc_toggle_deltas,
    local_complement,
)
from repro.utils.backend import DENSE, resolve_backend
from repro.solvers.mip import BinaryLinearProgram, MIPStatus, solve_binary_program
from repro.solvers.partition_heuristics import (
    balanced_greedy_partition,
    cut_size,
    kernighan_lin_refinement,
)

__all__ = ["PartitionResult", "GraphPartitioner", "build_partition_program"]

Vertex = Hashable

#: Graphs above ``max_subgraph_size`` and up to this many vertices are
#: partitioned by the exact branch-and-bound MIP; larger ones heuristically.
EXACT_PARTITION_MAX_VERTICES = 10


@dataclass
class PartitionResult:
    """Outcome of the partition + LC stage.

    Attributes:
        original_graph: the graph the partitioner was asked to split.
        transformed_graph: the graph after the chosen LC sequence (the one the
            rest of the pipeline compiles).
        blocks: vertex blocks (subgraphs / leaves).
        lc_operations: LC operations applied to obtain ``transformed_graph``
            (needed to emit the single-qubit correction gates).
        stem_edges: edges of ``transformed_graph`` between different blocks.
        method: ``"exact"`` or ``"heuristic"``.
    """

    original_graph: GraphState
    transformed_graph: GraphState
    blocks: list[list[Vertex]]
    lc_operations: list[LCOperation]
    stem_edges: list[tuple[Vertex, Vertex]]
    method: str

    @property
    def num_stem_edges(self) -> int:
        return len(self.stem_edges)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_of(self) -> dict[Vertex, int]:
        """Map every vertex to the index of its block."""
        mapping: dict[Vertex, int] = {}
        for index, block in enumerate(self.blocks):
            for v in block:
                mapping[v] = index
        return mapping


def build_partition_program(
    graph: GraphState, max_block_size: int, num_blocks: int
) -> tuple[
        BinaryLinearProgram,
        dict[tuple[Vertex, int], str],
        dict[tuple[Vertex, Vertex, int], str],
    ]:
    """Build the 0-1 partition model of paper Eq. (4)-(5) for a fixed graph.

    Variables:

    * ``y[v,g]`` — vertex ``v`` assigned to block ``g``;
    * ``s[u,v,g]`` — both endpoints of edge ``(u, v)`` are in block ``g``
      (linearisation of the product ``y[u,g] * y[v,g]``).

    The objective minimises the number of edges *not* internal to any block
    (i.e. the stem edges).  Returns the program plus the variable-name maps.
    """
    if max_block_size < 1:
        raise ValueError("max_block_size must be >= 1")
    if num_blocks < 1:
        raise ValueError("num_blocks must be >= 1")
    program = BinaryLinearProgram()
    y_names: dict[tuple[Vertex, int], str] = {}
    s_names: dict[tuple[Vertex, Vertex, int], str] = {}

    vertices = graph.vertices()
    edges = graph.edges()

    for v in vertices:
        for g in range(num_blocks):
            y_names[(v, g)] = program.add_variable(f"y[{v!r},{g}]")
        # Every vertex sits in exactly one block.
        program.add_constraint(
            {y_names[(v, g)]: 1.0 for g in range(num_blocks)}, "==", 1.0, name=f"assign[{v!r}]"
        )
    for g in range(num_blocks):
        program.add_constraint(
            {y_names[(v, g)]: 1.0 for v in vertices},
            "<=",
            float(max_block_size),
            name=f"capacity[{g}]",
        )

    # Objective: #edges - sum_g internal(u, v, g); the constant keeps the
    # optimum equal to the stem-edge count.
    program.add_objective_constant(float(len(edges)))
    for u, v in edges:
        for g in range(num_blocks):
            name = program.add_variable(f"s[{u!r},{v!r},{g}]")
            s_names[(u, v, g)] = name
            program.add_objective_term(name, -1.0)
            # s <= y_u, s <= y_v, s >= y_u + y_v - 1
            program.add_constraint({name: 1.0, y_names[(u, g)]: -1.0}, "<=", 0.0)
            program.add_constraint({name: 1.0, y_names[(v, g)]: -1.0}, "<=", 0.0)
            program.add_constraint(
                {name: 1.0, y_names[(u, g)]: -1.0, y_names[(v, g)]: -1.0}, ">=", -1.0
            )
    # Symmetry breaking: the first vertex goes to block 0.
    if vertices:
        program.add_constraint({y_names[(vertices[0], 0)]: 1.0}, "==", 1.0, name="symmetry")
    return program, y_names, s_names


class GraphPartitioner:
    """Partition a graph state into bounded blocks with an LC budget."""

    def __init__(self, config: CompilerConfig | None = None):
        self.config = config if config is not None else CompilerConfig()

    # ------------------------------------------------------------------ #
    # Public entry point
    # ------------------------------------------------------------------ #

    def partition(self, graph: GraphState) -> PartitionResult:
        """Run the combined LC + partition search on ``graph``."""
        if graph.num_vertices == 0:
            raise ValueError("cannot partition an empty graph")
        config = self.config
        if graph.num_vertices <= config.max_subgraph_size:
            # A single block; LC is still worth applying to shrink the edge
            # count (fewer edges means fewer emitter-emitter CNOTs inside the
            # only leaf).
            transformed, lc_ops = self._lc_edge_minimisation(graph, config.lc_budget)
            blocks = [list(transformed.vertices())]
            return PartitionResult(
                original_graph=graph.copy(),
                transformed_graph=transformed,
                blocks=blocks,
                lc_operations=lc_ops,
                stem_edges=[],
                method="trivial",
            )

        return self._partition_with_lc(
            graph, exact=graph.num_vertices <= EXACT_PARTITION_MAX_VERTICES
        )

    # ------------------------------------------------------------------ #
    # LC search wrapper
    # ------------------------------------------------------------------ #

    def _partition_with_lc(self, graph: GraphState, exact: bool) -> PartitionResult:
        """Alternate cut-reducing LC moves and re-partitioning."""
        config = self.config
        current = graph.copy()
        lc_ops: list[LCOperation] = []

        best_blocks = self._partition_once(current, exact)
        best_cut = cut_size(current, best_blocks)
        best_edges = current.num_edges
        best_graph = current.copy()
        best_ops = list(lc_ops)

        current_blocks = best_blocks
        remaining_budget = config.lc_budget
        packed_scoring = resolve_backend(None) != DENSE
        while remaining_budget > 0:
            # Evaluate one LC move per vertex against the *current* partition
            # (cheap proxy).  A move is attractive when it reduces the cut, or
            # — failing that — the total edge count (fewer edges generally
            # means fewer emitter-emitter CNOTs even inside the leaves).  On
            # the packed backend every candidate is scored by the exact
            # (cut, edge) deltas from the packed adjacency rows — no graph
            # copy per vertex; the dense path keeps the copy-and-measure loop
            # as the oracle.  Both pick the same vertex.
            candidate_vertex = None
            candidate_key: tuple[int, int] | None = None
            current_key = (cut_size(current, current_blocks), current.num_edges)
            if packed_scoring:
                block_of = {
                    v: b for b, block in enumerate(current_blocks) for v in block
                }
                deltas = lc_toggle_deltas(current, block_of)
                for vertex in current.vertices():
                    delta = deltas.get(vertex)
                    if delta is None:  # degree < 2: LC is a no-op
                        continue
                    trial_key = (
                        current_key[0] + delta[1],
                        current_key[1] + delta[0],
                    )
                    if trial_key < current_key and (
                        candidate_key is None or trial_key < candidate_key
                    ):
                        candidate_key = trial_key
                        candidate_vertex = vertex
            else:
                for vertex in current.vertices():
                    if current.degree(vertex) < 2:
                        continue
                    trial = current.copy()
                    trial.local_complement(vertex)
                    trial_key = (cut_size(trial, current_blocks), trial.num_edges)
                    if trial_key < current_key and (
                        candidate_key is None or trial_key < candidate_key
                    ):
                        candidate_key = trial_key
                        candidate_vertex = vertex
            if candidate_vertex is None:
                break
            current, op = local_complement(current, candidate_vertex)
            lc_ops.append(op)
            remaining_budget -= 1
            current_blocks = self._partition_once(current, exact)
            cut = cut_size(current, current_blocks)
            if (cut, current.num_edges) < (best_cut, best_edges):
                best_cut = cut
                best_edges = current.num_edges
                best_blocks = current_blocks
                best_graph = current.copy()
                best_ops = list(lc_ops)

        stem = best_graph.cut_edges(best_blocks)
        return PartitionResult(
            original_graph=graph.copy(),
            transformed_graph=best_graph,
            blocks=[list(b) for b in best_blocks],
            lc_operations=best_ops,
            stem_edges=stem,
            method="exact" if exact else "heuristic",
        )

    def _lc_edge_minimisation(
        self, graph: GraphState, budget: int
    ) -> tuple[GraphState, list[LCOperation]]:
        """Greedy LC moves minimising the total edge count (single-block case)."""
        from repro.graphs.local_complementation import minimize_edges_by_lc

        if budget <= 0:
            return graph.copy(), []
        return minimize_edges_by_lc(graph, budget)

    # ------------------------------------------------------------------ #
    # Single partition round
    # ------------------------------------------------------------------ #

    def _partition_once(self, graph: GraphState, exact: bool) -> list[list[Vertex]]:
        config = self.config
        if exact:
            blocks = self._partition_exact(graph)
            if blocks is not None:
                return blocks
        blocks = balanced_greedy_partition(
            graph, config.max_subgraph_size, seed=config.seed
        )
        blocks = kernighan_lin_refinement(graph, blocks, config.max_subgraph_size)
        return blocks

    def _partition_exact(self, graph: GraphState) -> list[list[Vertex]] | None:
        """Solve the partition MIP; fall back to ``None`` on budget exhaustion."""
        config = self.config
        num_blocks = -(-graph.num_vertices // config.max_subgraph_size)  # ceil division
        program, y_names, _ = build_partition_program(
            graph, config.max_subgraph_size, num_blocks
        )
        solution = solve_binary_program(program, max_nodes=150_000)
        if solution.status is MIPStatus.INFEASIBLE or not solution.assignment:
            return None
        blocks: list[list[Vertex]] = [[] for _ in range(num_blocks)]
        for (vertex, block_index), name in y_names.items():
            if solution.assignment.get(name, 0) == 1:
                blocks[block_index].append(vertex)
        blocks = [b for b in blocks if b]
        if sum(len(b) for b in blocks) != graph.num_vertices:
            return None
        return blocks
