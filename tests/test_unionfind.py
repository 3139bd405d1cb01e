"""Tests for union-find and edge-array connectivity."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graphs.unionfind import (
    UnionFind,
    count_components_edges,
    is_connected_edges,
)
from tests.oracle import to_graph


class TestUnionFind:
    def test_initial_components(self):
        uf = UnionFind(5)
        assert uf.num_components == 5

    def test_union_reduces_components(self):
        uf = UnionFind(4)
        assert uf.union(0, 1)
        assert uf.num_components == 3

    def test_redundant_union_returns_false(self):
        uf = UnionFind(3)
        uf.union(0, 1)
        assert not uf.union(1, 0)
        assert uf.num_components == 2

    def test_transitive_connected(self):
        uf = UnionFind(4)
        uf.union(0, 1)
        uf.union(1, 2)
        assert uf.connected(0, 2)
        assert not uf.connected(0, 3)

    def test_component_sizes_sorted(self):
        uf = UnionFind(6)
        uf.union(0, 1)
        uf.union(1, 2)
        uf.union(3, 4)
        assert uf.component_sizes() == [3, 2, 1]


class TestIsConnectedEdges:
    def test_single_node(self):
        assert is_connected_edges(1, np.empty((0, 2)))

    def test_two_isolated(self):
        assert not is_connected_edges(2, np.empty((0, 2)))

    def test_path_connected(self):
        edges = np.array([[0, 1], [1, 2], [2, 3]])
        assert is_connected_edges(4, edges)

    def test_missing_link(self):
        edges = np.array([[0, 1], [2, 3]])
        assert not is_connected_edges(4, edges)

    def test_too_few_edges_shortcut(self):
        # n-2 edges can never connect n nodes.
        edges = np.array([[0, 1], [1, 2]])
        assert not is_connected_edges(4, edges)

    def test_duplicate_edges_handled(self):
        edges = np.array([[0, 1], [0, 1], [1, 2]])
        assert is_connected_edges(3, edges)

    def test_bad_endpoint_raises(self):
        with pytest.raises(GraphError):
            is_connected_edges(3, np.array([[0, 3]]))

    def test_bad_shape_raises(self):
        with pytest.raises(GraphError):
            is_connected_edges(3, np.array([[0, 1, 2]]))

    def test_agrees_with_bfs_on_random_graphs(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 30))
            m = int(rng.integers(0, n * 2))
            edges = rng.integers(0, n, size=(m, 2))
            edges = edges[edges[:, 0] != edges[:, 1]]
            expected = nx.is_connected(to_graph(n, edges))
            assert is_connected_edges(n, edges) == expected


class TestCountComponents:
    def test_empty_graph(self):
        assert count_components_edges(5, np.empty((0, 2))) == 5

    def test_matches_bfs_on_random_graphs(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 30))
            m = int(rng.integers(0, n * 2))
            edges = rng.integers(0, n, size=(m, 2))
            edges = edges[edges[:, 0] != edges[:, 1]]
            expected = nx.number_connected_components(to_graph(n, edges))
            assert count_components_edges(n, edges) == expected
