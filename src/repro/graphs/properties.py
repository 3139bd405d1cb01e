"""Scalar and distributional graph properties used by the experiments.

The min-degree law (Lemma 8) and degree-distribution law (Lemma 9) need
fast access to degree statistics; every helper here takes
``(num_nodes, edges)`` straight from an ``(m, 2)`` numpy edge array.
"""

from __future__ import annotations


import numpy as np

from repro.exceptions import GraphError
from repro.graphs.traversal import csr_adjacency
from repro.utils.validation import check_nonnegative_int, check_positive_int

__all__ = [
    "degrees_from_edges",
    "min_degree_edges",
    "isolated_node_count",
    "degree_histogram_edges",
    "nodes_with_degree",
    "average_clustering_edges",
]


def degrees_from_edges(num_nodes: int, edges: np.ndarray) -> np.ndarray:
    """Degree vector from an ``(m, 2)`` edge array."""
    num_nodes = check_positive_int(num_nodes, "num_nodes")
    edges = np.asarray(edges, dtype=np.int64)
    degs = np.zeros(num_nodes, dtype=np.int64)
    if edges.size == 0:
        return degs
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise GraphError(f"edges must have shape (m, 2), got {edges.shape}")
    np.add.at(degs, edges[:, 0], 1)
    np.add.at(degs, edges[:, 1], 1)
    return degs


def min_degree_edges(num_nodes: int, edges: np.ndarray) -> int:
    """Minimum degree computed straight from an edge array."""
    return int(degrees_from_edges(num_nodes, edges).min())


def isolated_node_count(num_nodes: int, edges: np.ndarray) -> int:
    """Number of degree-0 nodes (the k=1 obstruction in the limit law)."""
    return int((degrees_from_edges(num_nodes, edges) == 0).sum())


def degree_histogram_edges(num_nodes: int, edges: np.ndarray) -> np.ndarray:
    """Histogram ``h[d] = #nodes of degree d`` (length ``max degree + 1``)."""
    degs = degrees_from_edges(num_nodes, edges)
    return np.bincount(degs, minlength=int(degs.max()) + 1)


def nodes_with_degree(num_nodes: int, edges: np.ndarray, h: int) -> int:
    """Number of nodes of exactly degree *h* — the Lemma 9 statistic."""
    h = check_nonnegative_int(h, "h")
    degs = degrees_from_edges(num_nodes, edges)
    return int((degs == h).sum())


def average_clustering_edges(num_nodes: int, edges: np.ndarray) -> float:
    """Average local clustering coefficient of a simple edge array's graph.

    Nodes of degree < 2 contribute 0 (the networkx convention), so the
    statistic is defined on every graph.  Random intersection graphs are
    known to cluster much more strongly than Erdős–Rényi graphs at equal
    edge density (Bloznelis 2013) — an effect showcased by one of the
    examples.  Rows must be distinct edges without self-loops.
    """
    num_nodes = check_positive_int(num_nodes, "num_nodes")
    indptr, neighbors = csr_adjacency(num_nodes, edges)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.shape[0] == 0:
        return 0.0
    degs = np.diff(indptr)
    # Common-neighbor count per edge via neighbor-list intersection.
    # Summed over the edges incident to u this counts each triangle at u
    # twice, so c(u) = S[u] / (d(d-1)) without a separate halving.
    common = np.empty(edges.shape[0], dtype=np.int64)
    for e in range(edges.shape[0]):
        u, v = edges[e, 0], edges[e, 1]
        common[e] = np.intersect1d(
            neighbors[indptr[u] : indptr[u + 1]],
            neighbors[indptr[v] : indptr[v + 1]],
            assume_unique=True,
        ).size
    coeff_sum = np.zeros(num_nodes, dtype=np.float64)
    np.add.at(coeff_sum, edges[:, 0], common)
    np.add.at(coeff_sum, edges[:, 1], common)
    mask = degs >= 2
    if not mask.any():
        return 0.0
    local = coeff_sum[mask] / (degs[mask] * (degs[mask] - 1.0))
    return float(local.sum() / num_nodes)
