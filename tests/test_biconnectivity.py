"""Tests for array-first articulation points / biconnectivity vs networkx."""

from __future__ import annotations

import networkx as nx
import numpy as np

import pytest

from repro.exceptions import GraphError
from repro.graphs.biconnectivity import articulation_points_edges, is_biconnected_edges
from repro.graphs.graph import Graph
from tests.conftest import random_gnp_graph


def articulation_points(g: Graph):
    return articulation_points_edges(g.num_nodes, g.to_edge_array())


def is_biconnected(g: Graph) -> bool:
    return is_biconnected_edges(g.num_nodes, g.to_edge_array())


def _to_nx(g: Graph) -> nx.Graph:
    ng = nx.Graph()
    ng.add_nodes_from(range(g.num_nodes))
    ng.add_edges_from(g.edges())
    return ng


class TestArticulationPoints:
    def test_path_interior_nodes(self):
        g = Graph.path(5)
        assert articulation_points(g) == {1, 2, 3}

    def test_cycle_has_none(self):
        assert articulation_points(Graph.cycle(6)) == set()

    def test_star_center(self):
        g = Graph(5, [(0, i) for i in range(1, 5)])
        assert articulation_points(g) == {0}

    def test_bowtie_center(self, bowtie_graph):
        assert articulation_points(bowtie_graph) == {2}

    def test_complete_has_none(self):
        assert articulation_points(Graph.complete(6)) == set()

    def test_disconnected_components_processed(self):
        # Two paths: both interiors are articulation points.
        g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        assert articulation_points(g) == {1, 4}

    def test_matches_networkx_on_random(self, rng):
        for _ in range(60):
            n = int(rng.integers(3, 40))
            g = random_gnp_graph(n, float(rng.uniform(0.05, 0.3)), rng)
            ours = articulation_points(g)
            theirs = set(nx.articulation_points(_to_nx(g)))
            assert ours == theirs

    def test_deep_path_no_recursion_limit(self):
        # 5000-node path would blow Python's default recursion limit if
        # the DFS were recursive.
        n = 5000
        g = Graph.path(n)
        assert len(articulation_points(g)) == n - 2


class TestIsBiconnected:
    def test_k2_not_biconnected(self):
        assert not is_biconnected(Graph(2, [(0, 1)]))

    def test_triangle(self):
        assert is_biconnected(Graph.complete(3))

    def test_cycle(self):
        assert is_biconnected(Graph.cycle(8))

    def test_diamond(self, diamond_graph):
        assert is_biconnected(diamond_graph)

    def test_bowtie_not(self, bowtie_graph):
        assert not is_biconnected(bowtie_graph)

    def test_disconnected_not(self):
        assert not is_biconnected(Graph(4, [(0, 1), (2, 3)]))

    def test_matches_networkx_on_random(self, rng):
        for _ in range(60):
            n = int(rng.integers(3, 35))
            g = random_gnp_graph(n, float(rng.uniform(0.1, 0.4)), rng)
            assert is_biconnected(g) == nx.is_biconnected(_to_nx(g))

    def test_edge_order_and_duplicates_irrelevant(self, rng):
        # Unsorted rows, flipped endpoints and repeated edges describe
        # the same simple graph.
        for _ in range(30):
            n = int(rng.integers(3, 20))
            edges = random_gnp_graph(n, 0.3, rng).to_edge_array()
            messy = np.concatenate([edges, edges[:, ::-1]])[rng.permutation(2 * len(edges))]
            assert is_biconnected_edges(n, messy) == is_biconnected_edges(n, edges)
            assert articulation_points_edges(n, messy) == articulation_points_edges(n, edges)

    def test_out_of_range_endpoint_raises(self):
        with pytest.raises(GraphError):
            is_biconnected_edges(3, [[0, 1], [1, 3]])
        with pytest.raises(GraphError):
            articulation_points_edges(3, [[0, -1]])
