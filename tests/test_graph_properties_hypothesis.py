"""Property-based tests (hypothesis) for graph-algorithm invariants.

These complement the networkx cross-checks with structural invariants
that must hold on *every* graph, generated adversarially by hypothesis
rather than sampled from a fixed random model.
"""

from __future__ import annotations

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.biconnectivity import articulation_points_edges, is_biconnected_edges
from repro.graphs.properties import degrees_from_edges
from repro.graphs.traversal import shortest_path_edges
from repro.graphs.unionfind import count_components_edges, is_connected_edges
from repro.graphs.vertex_connectivity import is_k_connected_edges
from tests.conftest import edges_of


def is_k_connected(g: nx.Graph, k: int) -> bool:
    return is_k_connected_edges(g.number_of_nodes(), edges_of(g), k)


@st.composite
def graphs(draw, max_nodes: int = 12, max_edges: int = 30):
    """Arbitrary small networkx graph on nodes ``0 .. n-1``."""
    n = draw(st.integers(2, max_nodes))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    raw = draw(st.lists(pairs, max_size=max_edges))
    g = nx.empty_graph(n)
    g.add_edges_from((u, v) for u, v in raw if u != v)
    return g


class TestConnectivityInvariants:
    @given(graphs())
    @settings(max_examples=120, deadline=None)
    def test_kappa_at_most_min_degree(self, g):
        assert not is_k_connected(g, min(d for _, d in g.degree()) + 1)

    @given(graphs())
    @settings(max_examples=120, deadline=None)
    def test_is_k_connected_matches_kappa(self, g):
        kappa = nx.node_connectivity(g)
        assert is_k_connected(g, kappa)
        assert not is_k_connected(g, kappa + 1)

    @given(graphs())
    @settings(max_examples=120, deadline=None)
    def test_is_k_connected_monotone_in_k(self, g):
        previous = True
        for k in range(0, g.number_of_nodes() + 1):
            current = is_k_connected(g, k)
            if current:
                assert previous  # once False, stays False
            previous = current

    @given(graphs())
    @settings(max_examples=120, deadline=None)
    def test_component_counts_agree(self, g):
        n, edges = g.number_of_nodes(), edges_of(g)
        assert count_components_edges(n, edges) == nx.number_connected_components(g)
        assert is_connected_edges(n, edges) == nx.is_connected(g)

    @given(graphs())
    @settings(max_examples=100, deadline=None)
    def test_biconnected_iff_kappa_two(self, g):
        assert is_biconnected_edges(g.number_of_nodes(), edges_of(g)) == (
            nx.node_connectivity(g) >= 2
        )

    @given(graphs())
    @settings(max_examples=100, deadline=None)
    def test_removing_articulation_point_disconnects(self, g):
        n = g.number_of_nodes()
        if not nx.is_connected(g) or n < 3:
            return
        for ap in articulation_points_edges(n, edges_of(g)):
            reduced = g.copy()
            reduced.remove_edges_from(list(g.edges(ap)))
            # The removed node stays as an isolated vertex, so the live
            # part must have split: total components > 2 means the
            # remainder is disconnected.
            assert nx.number_connected_components(reduced) > 2


class TestPathInvariants:
    @given(graphs())
    @settings(max_examples=100, deadline=None)
    def test_shortest_path_is_valid_and_minimal_stepwise(self, g):
        target = g.number_of_nodes() - 1
        path = shortest_path_edges(g.number_of_nodes(), edges_of(g), 0, target)
        if path is None:
            assert not nx.has_path(g, 0, target)
            return
        assert path[0] == 0 and path[-1] == target
        assert len(set(path)) == len(path)  # simple path
        for a, b in zip(path, path[1:]):
            assert g.has_edge(a, b)
        assert len(path) - 1 == nx.shortest_path_length(g, 0, target)


class TestOperatorInvariants:
    @given(graphs(max_nodes=8), graphs(max_nodes=8))
    @settings(max_examples=60, deadline=None)
    def test_connectivity_monotone_under_supergraph(self, a, b):
        # Adding edges never disconnects: κ(a ∪ b) >= κ(a ∩ b), so
        # every k the intersection passes, the union passes too.
        n = max(a.number_of_nodes(), b.number_of_nodes())
        edges_a = set(map(tuple, edges_of(a).tolist()))
        edges_b = set(map(tuple, edges_of(b).tolist()))
        union, inter = nx.empty_graph(n), nx.empty_graph(n)
        union.add_edges_from(edges_a | edges_b)
        inter.add_edges_from(edges_a & edges_b)
        for k in range(n + 1):
            assert is_k_connected(union, k) or not is_k_connected(inter, k)


class TestDegreeInvariants:
    @given(graphs())
    @settings(max_examples=100, deadline=None)
    def test_handshake_lemma(self, g):
        degs = degrees_from_edges(g.number_of_nodes(), edges_of(g))
        assert int(degs.sum()) == 2 * g.number_of_edges()

    @given(graphs())
    @settings(max_examples=100, deadline=None)
    def test_degrees_match_graph_view(self, g):
        degs = degrees_from_edges(g.number_of_nodes(), edges_of(g))
        assert degs.tolist() == [d for _, d in sorted(g.degree())]
