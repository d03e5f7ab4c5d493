"""Communication graph with oriented edges and its incidence operators.

Players coordinate over a connected undirected graph.  Each edge gets a
fixed orientation (the order it was specified in), and the edge variable it
carries is owned by the source node.  The incidence matrix ``V`` has
``V[i, l] = +1`` if node ``i`` is the target of edge ``l``, ``-1`` if it is
the source, so that column sums vanish and ``V^T x = 0`` exactly on
constant vectors when the graph is connected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructuralError, ValidationError


@dataclass(frozen=True)
class CommGraph:
    """Nodes, oriented edges and their (N, M) incidence matrix ``V``.  The
    public maps check their argument's shape; a run's loops bind ``V`` and
    its transpose once and multiply by them (`operators.residual_map`)."""

    n_nodes: int
    edges: tuple
    incidence: np.ndarray

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def node_aggregate(self, per_edge: np.ndarray) -> np.ndarray:
        """Signed sum of incident edge values at every node: ``V @ Z``.

        ``per_edge`` is an (M, m) float array; the result is (N, m).
        """
        if per_edge.shape[0] != self.n_edges:
            raise StructuralError(
                f"expected {self.n_edges} edge values, got {per_edge.shape[0]}")
        return self.incidence @ per_edge

    def edge_differences(self, per_node: np.ndarray) -> np.ndarray:
        """Target-minus-source difference along every edge: ``V^T x``.

        ``per_node`` is an (N, m) float array; the result is (M, m).
        """
        if per_node.shape[0] != self.n_nodes:
            raise StructuralError(
                f"expected {self.n_nodes} node values, got {per_node.shape[0]}")
        return self.incidence.T @ per_node


def build_incidence(n_nodes: int, edges) -> CommGraph:
    """Build the oriented incidence structure and verify connectivity.

    ``edges`` is a sequence of (source, target) pairs of 0-based node
    indices.  Self-loops and duplicate undirected edges are rejected, and a
    disconnected graph is an error because multiplier consensus relies on
    ``V^T x = 0`` having only constant solutions.
    """
    if n_nodes < 2:
        raise ValidationError("a communication graph needs at least 2 nodes")
    edges = tuple((int(i), int(j)) for i, j in edges)
    seen = set()
    for i, j in edges:
        if not (0 <= i < n_nodes and 0 <= j < n_nodes):
            raise StructuralError(f"edge ({i}, {j}) references a missing node")
        if i == j:
            raise ValidationError(f"self-loop at node {i}")
        key = frozenset((i, j))
        if key in seen:
            raise ValidationError(f"duplicate undirected edge ({i}, {j})")
        seen.add(key)
    V = np.zeros((n_nodes, len(edges)))
    for l, (i, j) in enumerate(edges):
        V[i, l] = -1.0
        V[j, l] = +1.0
    # connectivity by breadth-first search over the undirected edge set
    adjacency = [[] for _ in range(n_nodes)]
    for i, j in edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    reached = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for other in adjacency[node]:
            if other not in reached:
                reached.add(other)
                frontier.append(other)
    if len(reached) != n_nodes:
        missing = sorted(set(range(n_nodes)) - reached)
        raise ValidationError(f"graph is disconnected; unreachable nodes {missing}")
    return CommGraph(n_nodes, edges, V)


def path_graph(n_nodes: int) -> CommGraph:
    """Chain 0-1-2-...-(n-1).

    Used as the benchmark communication topology: among connected graphs it
    minimizes the largest Laplacian eigenvalue, which is what the
    fixed-step-size conditions of the inequality algorithm are tightest in.
    """
    return build_incidence(n_nodes, [(i, i + 1) for i in range(n_nodes - 1)])
