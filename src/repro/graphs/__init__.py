"""Graph substrate: containers, algorithms, and random generators."""

from repro.graphs.biconnectivity import articulation_points_edges, is_biconnected_edges
from repro.graphs.generators import (
    edge_to_pair_index,
    erdos_renyi_edges,
    erdos_renyi_graph,
    expected_edge_count,
    pair_index_to_edge,
)
from repro.graphs.graph import Graph
from repro.graphs.properties import (
    average_clustering,
    degree_histogram,
    degree_histogram_edges,
    degrees_from_edges,
    isolated_node_count,
    min_degree,
    min_degree_edges,
    nodes_with_degree,
)
from repro.graphs.traversal import (
    bfs_order,
    connected_components,
    eccentricity,
    is_connected,
    shortest_path,
)
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
    "erdos_renyi_graph",
    "expected_edge_count",
    "pair_index_to_edge",
    "Graph",
    "average_clustering",
    "degree_histogram",
    "degree_histogram_edges",
    "degrees_from_edges",
    "isolated_node_count",
    "min_degree",
    "min_degree_edges",
    "nodes_with_degree",
    "bfs_order",
    "connected_components",
    "eccentricity",
    "is_connected",
    "shortest_path",
    "UnionFind",
    "connected_components_labels",
    "count_components_edges",
    "count_components_pair_keys",
    "is_connected_edges",
    "is_connected_pair_keys",
    "is_k_connected_edges",
]
