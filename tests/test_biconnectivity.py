"""Tests for array-first articulation points / biconnectivity vs networkx."""

from __future__ import annotations

import networkx as nx
import numpy as np

import pytest

from repro.exceptions import GraphError
from repro.graphs.biconnectivity import articulation_points_edges, is_biconnected_edges
from tests.conftest import edges_of, random_gnp_graph
from tests.oracle import to_graph


def articulation_points(g: nx.Graph):
    return articulation_points_edges(g.number_of_nodes(), edges_of(g))


def is_biconnected(g: nx.Graph) -> bool:
    return is_biconnected_edges(g.number_of_nodes(), edges_of(g))


class TestArticulationPoints:
    def test_path_interior_nodes(self):
        assert articulation_points(nx.path_graph(5)) == {1, 2, 3}

    def test_cycle_has_none(self):
        assert articulation_points(nx.cycle_graph(6)) == set()

    def test_star_center(self):
        assert articulation_points(nx.star_graph(4)) == {0}

    def test_bowtie_center(self, bowtie_graph):
        assert articulation_points_edges(5, bowtie_graph) == {2}

    def test_complete_has_none(self):
        assert articulation_points(nx.complete_graph(6)) == set()

    def test_disconnected_components_processed(self):
        # Two paths: both interiors are articulation points.
        edges = np.array([(0, 1), (1, 2), (3, 4), (4, 5)])
        assert articulation_points_edges(6, edges) == {1, 4}

    def test_matches_networkx_on_random(self, rng):
        for _ in range(60):
            n = int(rng.integers(3, 40))
            g = random_gnp_graph(n, float(rng.uniform(0.05, 0.3)), rng)
            ours = articulation_points_edges(n, g)
            theirs = set(nx.articulation_points(to_graph(n, g)))
            assert ours == theirs

    def test_deep_path_no_recursion_limit(self):
        # 5000-node path would blow Python's default recursion limit if
        # the DFS were recursive.
        n = 5000
        assert len(articulation_points(nx.path_graph(n))) == n - 2


class TestIsBiconnected:
    def test_k2_not_biconnected(self):
        assert not is_biconnected_edges(2, [(0, 1)])

    def test_triangle(self):
        assert is_biconnected(nx.complete_graph(3))

    def test_cycle(self):
        assert is_biconnected(nx.cycle_graph(8))

    def test_diamond(self, diamond_graph):
        assert is_biconnected_edges(4, diamond_graph)

    def test_bowtie_not(self, bowtie_graph):
        assert not is_biconnected_edges(5, bowtie_graph)

    def test_disconnected_not(self):
        assert not is_biconnected_edges(4, [(0, 1), (2, 3)])

    def test_matches_networkx_on_random(self, rng):
        for _ in range(60):
            n = int(rng.integers(3, 35))
            g = random_gnp_graph(n, float(rng.uniform(0.1, 0.4)), rng)
            assert is_biconnected_edges(n, g) == nx.is_biconnected(to_graph(n, g))

    def test_edge_order_and_duplicates_irrelevant(self, rng):
        # Unsorted rows, flipped endpoints and repeated edges describe
        # the same simple graph.
        for _ in range(30):
            n = int(rng.integers(3, 20))
            edges = random_gnp_graph(n, 0.3, rng)
            messy = np.concatenate([edges, edges[:, ::-1]])[rng.permutation(2 * len(edges))]
            assert is_biconnected_edges(n, messy) == is_biconnected_edges(n, edges)
            assert articulation_points_edges(n, messy) == articulation_points_edges(n, edges)

    def test_out_of_range_endpoint_raises(self):
        with pytest.raises(GraphError):
            is_biconnected_edges(3, [[0, 1], [1, 3]])
        with pytest.raises(GraphError):
            articulation_points_edges(3, [[0, -1]])
