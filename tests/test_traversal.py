"""Tests for the CSR adjacency builder and array-first shortest paths.

Connectivity and component questions have no BFS of their own; the
``_edges`` functions of :mod:`repro.graphs.unionfind` answer them, and
the connectivity cases below check those against networkx.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graphs.traversal import csr_adjacency, shortest_path_edges
from repro.graphs.unionfind import count_components_edges, is_connected_edges
from tests.conftest import edges_of, random_gnp_graph
from tests.oracle import to_graph

EMPTY = np.empty((0, 2), dtype=np.int64)


class TestCsrAdjacency:
    def test_neighbor_lists_match_networkx(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 30))
            edges = random_gnp_graph(n, 0.2, rng)
            indptr, nbrs = csr_adjacency(n, edges)
            g = to_graph(n, edges)
            assert np.diff(indptr).tolist() == [g.degree(u) for u in range(n)]
            for u in range(n):
                # Canonical input gives ascending neighbor lists.
                assert nbrs[indptr[u] : indptr[u + 1]].tolist() == sorted(g[u])

    def test_empty_edges(self):
        indptr, nbrs = csr_adjacency(3, EMPTY)
        assert indptr.tolist() == [0, 0, 0, 0] and nbrs.size == 0

    def test_malformed_edges_raise(self):
        with pytest.raises(GraphError):
            csr_adjacency(3, [[0, 3]])
        with pytest.raises(GraphError):
            csr_adjacency(3, [[0, 1, 2]])


class TestComponents:
    def test_isolated_nodes_are_components(self):
        assert count_components_edges(3, EMPTY) == 3

    def test_matches_networkx_on_random(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 40))
            edges = random_gnp_graph(n, 0.08, rng)
            expected = nx.number_connected_components(to_graph(n, edges))
            assert count_components_edges(n, edges) == expected


class TestIsConnected:
    def test_singleton(self):
        assert is_connected_edges(1, EMPTY)

    def test_cycle(self):
        assert is_connected_edges(5, edges_of(nx.cycle_graph(5)))

    def test_two_parts(self):
        assert not is_connected_edges(4, [(0, 1), (2, 3)])


class TestShortestPath:
    def test_trivial(self):
        assert shortest_path_edges(3, EMPTY, 1, 1) == [1]

    def test_disconnected_returns_none(self):
        assert shortest_path_edges(3, [(0, 1)], 0, 2) is None

    def test_path_validity_and_length(self, rng):
        for _ in range(25):
            n = int(rng.integers(3, 30))
            edges = random_gnp_graph(n, 0.15, rng)
            g = to_graph(n, edges)
            s, t = 0, n - 1
            ours = shortest_path_edges(n, edges, s, t)
            if ours is None:
                assert not nx.has_path(g, s, t)
                continue
            # Each hop must be a real edge, length must be optimal.
            for a, b in zip(ours, ours[1:]):
                assert g.has_edge(a, b)
            assert len(ours) - 1 == nx.shortest_path_length(g, s, t)

    def test_ties_break_in_csr_order(self):
        # Two 2-hop routes 0-1-3 and 0-2-3.  The BFS scans neighbors in
        # CSR order, which is ascending for a canonical edge array and
        # follows row order otherwise.
        edges = np.array([(0, 1), (0, 2), (1, 3), (2, 3)])
        assert shortest_path_edges(4, edges, 0, 3) == [0, 1, 3]
        assert shortest_path_edges(4, edges[::-1], 0, 3) == [0, 2, 3]

    def test_bad_nodes_raise(self):
        with pytest.raises(GraphError):
            shortest_path_edges(3, EMPTY, 0, 7)
        with pytest.raises(GraphError):
            shortest_path_edges(3, EMPTY, 7, 0)
