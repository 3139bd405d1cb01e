"""Graph substrate on ``(m, 2)`` edge arrays: algorithms and random generators."""

from repro.graphs.biconnectivity import articulation_points_edges, is_biconnected_edges
from repro.graphs.generators import (
    edge_to_pair_index,
    erdos_renyi_edges,
    expected_edge_count,
    pair_index_to_edge,
)
from repro.graphs.properties import (
    average_clustering_edges,
    degree_histogram_edges,
    degrees_from_edges,
    isolated_node_count,
    min_degree_edges,
    nodes_with_degree,
)
from repro.graphs.traversal import csr_adjacency, shortest_path_edges
from repro.graphs.unionfind import (
    UnionFind,
    connected_components_labels,
    count_components_edges,
    count_components_pair_keys,
    is_connected_edges,
    is_connected_pair_keys,
)
from repro.graphs.vertex_connectivity import is_k_connected_edges

__all__ = [
    "articulation_points_edges",
    "is_biconnected_edges",
    "edge_to_pair_index",
    "erdos_renyi_edges",
    "expected_edge_count",
    "pair_index_to_edge",
    "average_clustering_edges",
    "degree_histogram_edges",
    "degrees_from_edges",
    "isolated_node_count",
    "min_degree_edges",
    "nodes_with_degree",
    "csr_adjacency",
    "shortest_path_edges",
    "UnionFind",
    "connected_components_labels",
    "count_components_edges",
    "count_components_pair_keys",
    "is_connected_edges",
    "is_connected_pair_keys",
    "is_k_connected_edges",
]
