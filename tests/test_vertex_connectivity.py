"""Tests for the exact κ(G) >= k decision — the k-connectivity oracle.

:func:`is_k_connected_edges` (certificate, then Tarjan for k = 2 or the
ISAP pivot scan for k >= 3) is the correctness keystone of the
k-connectivity experiments, so it is cross-validated against
``networkx.node_connectivity`` on hundreds of random graphs, including
near-threshold Erdős–Rényi graphs where separators are small and
plentiful.
"""

from __future__ import annotations

import math

import networkx as nx

from repro.graphs.graph import Graph
from repro.graphs.vertex_connectivity import _ScanNetwork, is_k_connected_edges
from tests.conftest import random_gnp_graph


def _to_nx(g: Graph) -> nx.Graph:
    ng = nx.Graph()
    ng.add_nodes_from(range(g.num_nodes))
    ng.add_edges_from(g.edges())
    return ng


def local_node_connectivity(g: Graph, s: int, t: int) -> int:
    """κ(s, t) from the pivot scan's ISAP engine: the largest k it accepts."""
    net = _ScanNetwork(g.num_nodes, g.to_edge_array().tolist())
    kappa = 0
    while net.at_least(s, t, kappa + 1):
        kappa += 1
    return kappa


def is_k_connected(g: Graph, k: int) -> bool:
    return is_k_connected_edges(g.num_nodes, g.to_edge_array(), k)


def assert_kappa(g: Graph, kappa: int) -> None:
    """The decision holds at κ and fails at κ + 1."""
    assert is_k_connected(g, kappa)
    assert not is_k_connected(g, kappa + 1)


def assert_matches_networkx(g: Graph) -> None:
    kappa = nx.node_connectivity(_to_nx(g))
    for k in range(1, kappa + 2):
        assert is_k_connected(g, k) == (kappa >= k), (kappa, k)


class TestNamedGraphs:
    def test_complete(self):
        for n in (2, 3, 5, 8):
            assert_kappa(Graph.complete(n), n - 1)

    def test_cycle_is_two(self):
        assert_kappa(Graph.cycle(7), 2)

    def test_path_is_one(self):
        assert_kappa(Graph.path(6), 1)

    def test_disconnected_zero(self):
        assert_kappa(Graph(4, [(0, 1), (2, 3)]), 0)

    def test_single_node_zero(self):
        assert_kappa(Graph(1), 0)

    def test_diamond(self, diamond_graph):
        assert_kappa(diamond_graph, 2)

    def test_bowtie_one(self, bowtie_graph):
        assert_kappa(bowtie_graph, 1)

    def test_petersen_is_three(self):
        pg = nx.petersen_graph()
        g = Graph(10, pg.edges())
        assert_kappa(g, 3)

    def test_hypercube_q4_is_four(self):
        hc = nx.hypercube_graph(4)
        mapping = {node: i for i, node in enumerate(hc.nodes())}
        g = Graph(16, ((mapping[a], mapping[b]) for a, b in hc.edges()))
        assert_kappa(g, 4)

    def test_complete_bipartite(self):
        kb = nx.complete_bipartite_graph(3, 5)
        g = Graph(8, kb.edges())
        assert_kappa(g, 3)


class TestIsKConnected:
    def test_k_zero_always_true(self):
        assert is_k_connected(Graph(3), 0)

    def test_needs_k_plus_one_nodes(self):
        assert not is_k_connected(Graph.complete(3), 3)
        assert is_k_connected(Graph.complete(4), 3)

    def test_k1_matches_connectivity(self):
        assert is_k_connected(Graph.path(4), 1)
        assert not is_k_connected(Graph(3, [(0, 1)]), 1)

    def test_k2_matches_biconnectivity(self, diamond_graph, bowtie_graph):
        assert is_k_connected(diamond_graph, 2)
        assert not is_k_connected(bowtie_graph, 2)

    def test_min_degree_shortcut(self):
        # Star: center degree n-1 but leaves have degree 1.
        g = Graph(6, [(0, i) for i in range(1, 6)])
        assert not is_k_connected(g, 2)

    def test_consistent_with_exact_kappa_on_random(self, rng):
        for _ in range(40):
            n = int(rng.integers(4, 22))
            g = random_gnp_graph(n, float(rng.uniform(0.2, 0.7)), rng)
            kappa = nx.node_connectivity(_to_nx(g))
            for k in range(0, min(kappa + 3, n)):
                assert is_k_connected(g, k) == (kappa >= k)


class TestAgainstNetworkx:
    def test_random_dense(self, rng):
        for _ in range(60):
            n = int(rng.integers(4, 18))
            g = random_gnp_graph(n, float(rng.uniform(0.3, 0.8)), rng)
            assert_matches_networkx(g)

    def test_random_sparse(self, rng):
        for _ in range(60):
            n = int(rng.integers(4, 25))
            g = random_gnp_graph(n, float(rng.uniform(0.05, 0.25)), rng)
            assert_matches_networkx(g)

    def test_near_threshold_er(self, rng):
        # The regime the experiments live in: p around ln n / n.
        for _ in range(30):
            n = 30
            p = float(rng.uniform(0.5, 2.0)) * math.log(n) / n
            g = random_gnp_graph(n, p, rng)
            assert_matches_networkx(g)


class TestLocalConnectivity:
    """The ISAP flow engine behind the k >= 3 pivot scan, pair by pair."""

    def test_disconnected_pair_zero(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert local_node_connectivity(g, 0, 2) == 0

    def test_adjacent_pair_complete(self):
        # In K_n adjacent local connectivity is n - 1 (the direct edge
        # counts as one path).
        g = Graph.complete(5)
        assert local_node_connectivity(g, 0, 1) == 4

    def test_limit_caps_value(self):
        # A query stops at k paths, so it accepts every k up to κ(s, t).
        net = _ScanNetwork(6, Graph.complete(6).to_edge_array().tolist())
        assert net.at_least(0, 1, 2)
        assert net.at_least(0, 1, 5)
        assert not net.at_least(0, 1, 6)

    def test_matches_networkx_nonadjacent(self, rng):
        for _ in range(40):
            n = int(rng.integers(5, 16))
            g = random_gnp_graph(n, 0.4, rng)
            ng = _to_nx(g)
            pairs = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if not g.has_edge(u, v)
            ]
            for u, v in pairs[:5]:
                assert local_node_connectivity(g, u, v) == (
                    nx.connectivity.local_node_connectivity(ng, u, v)
                )

    def test_matches_networkx_adjacent(self, rng):
        for _ in range(25):
            n = int(rng.integers(5, 14))
            g = random_gnp_graph(n, 0.5, rng)
            ng = _to_nx(g)
            pairs = [e for e in g.edges()][:4]
            for u, v in pairs:
                assert local_node_connectivity(g, u, v) == (
                    nx.connectivity.local_node_connectivity(ng, u, v)
                )
