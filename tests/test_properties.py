"""Tests for graph property helpers."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graphs.properties import (
    average_clustering_edges,
    degree_histogram_edges,
    degrees_from_edges,
    isolated_node_count,
    min_degree_edges,
    nodes_with_degree,
)
from tests.conftest import edges_of, random_gnp_graph
from tests.oracle import to_graph

STAR_4 = np.array([(0, 1), (0, 2), (0, 3)])


class TestDegreesFromEdges:
    def test_matches_graph_degrees(self, rng):
        for _ in range(20):
            arr = random_gnp_graph(25, 0.2, rng)
            expected = [d for _, d in sorted(to_graph(25, arr).degree())]
            assert degrees_from_edges(25, arr).tolist() == expected

    def test_empty(self):
        assert degrees_from_edges(4, np.empty((0, 2))).tolist() == [0, 0, 0, 0]

    def test_bad_shape_raises(self):
        with pytest.raises(GraphError):
            degrees_from_edges(4, np.array([[0, 1, 2]]))


class TestScalars:
    def test_min_degree(self):
        assert min_degree_edges(4, STAR_4) == 1
        assert min_degree_edges(5, STAR_4) == 0

    def test_isolated_count(self):
        edges = np.array([[0, 1]])
        assert isolated_node_count(4, edges) == 2

    def test_nodes_with_degree(self):
        assert nodes_with_degree(4, STAR_4, 1) == 3
        assert nodes_with_degree(4, STAR_4, 3) == 1
        assert nodes_with_degree(4, STAR_4, 2) == 0


class TestHistogram:
    def test_star(self):
        hist = degree_histogram_edges(5, edges_of(nx.star_graph(4)))
        assert hist.tolist() == [0, 4, 0, 0, 1]

    def test_histogram_edges_matches(self, rng):
        edges = random_gnp_graph(20, 0.3, rng)
        expected = nx.degree_histogram(to_graph(20, edges))
        assert degree_histogram_edges(20, edges).tolist() == expected

    def test_sums_to_n(self, rng):
        edges = random_gnp_graph(30, 0.2, rng)
        assert degree_histogram_edges(30, edges).sum() == 30


class TestClustering:
    def test_triangle_is_one(self):
        assert average_clustering_edges(3, edges_of(nx.complete_graph(3))) == pytest.approx(1.0)

    def test_path_is_zero(self):
        assert average_clustering_edges(5, edges_of(nx.path_graph(5))) == pytest.approx(0.0)

    def test_matches_networkx(self, rng):
        for _ in range(15):
            edges = random_gnp_graph(18, 0.35, rng)
            assert average_clustering_edges(18, edges) == pytest.approx(
                nx.average_clustering(to_graph(18, edges)), abs=1e-10
            )

    def test_key_graph_clusters_more_than_er(self):
        # Random intersection graphs cluster strongly (Bloznelis 2013):
        # in the sparse regime, co-holding a key creates triangles that
        # an ER graph of equal density lacks.
        from repro.keygraphs.uniform_graph import uniform_intersection_edges
        from repro.graphs.generators import erdos_renyi_edges

        kg = uniform_intersection_edges(200, 3, 300, 1, seed=5)
        p_match = kg.shape[0] / (200 * 199 / 2)
        er = erdos_renyi_edges(200, p_match, seed=6)
        assert average_clustering_edges(200, kg) > 3 * max(
            average_clustering_edges(200, er), 0.01
        )
