"""Tests for the exact κ(G) >= k decision — the k-connectivity oracle.

:func:`is_k_connected_edges` (Tarjan on the simple graph for k = 2; the
sparse certificate, then the bootstrap-closure scan for k >= 3) is the
correctness keystone of the k-connectivity experiments, so it is
cross-validated against ``networkx.node_connectivity`` on hundreds of
random graphs, including near-threshold Erdős–Rényi graphs where
separators are small and plentiful, and dense graphs where the
certificate drops most edges.
"""

from __future__ import annotations

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.graphs.vertex_connectivity import (
    _closure_scan_edges,
    _ScanNetwork,
    is_k_connected_edges,
)
from tests.conftest import edges_of, random_gnp_graph
from tests.oracle import to_graph


def _random_graph(n: int, p: float, rng) -> nx.Graph:
    return to_graph(n, random_gnp_graph(n, p, rng))


def local_node_connectivity(g: nx.Graph, s: int, t: int) -> int:
    """κ(s, t) from the closure scan's ISAP engine: the largest k it accepts."""
    net = _ScanNetwork(g.number_of_nodes(), edges_of(g).tolist())
    kappa = 0
    while net.at_least(s, t, kappa + 1):
        kappa += 1
    return kappa


def is_k_connected(g: nx.Graph, k: int) -> bool:
    return is_k_connected_edges(g.number_of_nodes(), edges_of(g), k)


def assert_kappa(g: nx.Graph, kappa: int) -> None:
    """The decision holds at κ and fails at κ + 1."""
    assert is_k_connected(g, kappa)
    assert not is_k_connected(g, kappa + 1)


def assert_matches_networkx(g: nx.Graph) -> None:
    kappa = nx.node_connectivity(g)
    for k in range(1, kappa + 2):
        assert is_k_connected(g, k) == (kappa >= k), (kappa, k)


class TestNamedGraphs:
    def test_complete(self):
        for n in (2, 3, 5, 8):
            assert_kappa(nx.complete_graph(n), n - 1)

    def test_cycle_is_two(self):
        assert_kappa(nx.cycle_graph(7), 2)

    def test_path_is_one(self):
        assert_kappa(nx.path_graph(6), 1)

    def test_disconnected_zero(self):
        assert_kappa(to_graph(4, [(0, 1), (2, 3)]), 0)

    def test_single_node_zero(self):
        assert_kappa(nx.empty_graph(1), 0)

    def test_diamond(self, diamond_graph):
        assert_kappa(to_graph(4, diamond_graph), 2)

    def test_bowtie_one(self, bowtie_graph):
        assert_kappa(to_graph(5, bowtie_graph), 1)

    def test_petersen_is_three(self):
        assert_kappa(nx.petersen_graph(), 3)

    def test_hypercube_q4_is_four(self):
        assert_kappa(nx.convert_node_labels_to_integers(nx.hypercube_graph(4)), 4)

    def test_complete_bipartite(self):
        assert_kappa(nx.complete_bipartite_graph(3, 5), 3)


class TestIsKConnected:
    def test_k_zero_always_true(self):
        assert is_k_connected(nx.empty_graph(3), 0)

    def test_needs_k_plus_one_nodes(self):
        assert not is_k_connected(nx.complete_graph(3), 3)
        assert is_k_connected(nx.complete_graph(4), 3)

    def test_k1_matches_connectivity(self):
        assert is_k_connected(nx.path_graph(4), 1)
        assert not is_k_connected(to_graph(3, [(0, 1)]), 1)

    def test_k2_matches_biconnectivity(self, diamond_graph, bowtie_graph):
        assert is_k_connected_edges(4, diamond_graph, 2)
        assert not is_k_connected_edges(5, bowtie_graph, 2)

    def test_k2_never_builds_a_certificate(self, rng, monkeypatch):
        from repro.kernels.reference import ReferenceBackend

        def refuse(self, num_nodes, edges, k):
            raise AssertionError("the k = 2 decision built a certificate")

        monkeypatch.setattr(ReferenceBackend, "sparse_certificate", refuse)
        for _ in range(40):
            n = int(rng.integers(4, 30))
            g = _random_graph(n, float(rng.uniform(0.1, 0.9)), rng)
            expected = nx.node_connectivity(g) >= 2
            assert is_k_connected_edges(n, edges_of(g), 2) == expected

    def test_min_degree_shortcut(self):
        # Star: center degree n-1 but leaves have degree 1.
        assert not is_k_connected(nx.star_graph(5), 2)

    def test_consistent_with_exact_kappa_on_random(self, rng):
        for _ in range(40):
            n = int(rng.integers(4, 22))
            g = _random_graph(n, float(rng.uniform(0.2, 0.7)), rng)
            kappa = nx.node_connectivity(g)
            for k in range(0, min(kappa + 3, n)):
                assert is_k_connected(g, k) == (kappa >= k)


class TestAgainstNetworkx:
    def test_random_dense(self, rng):
        for _ in range(60):
            n = int(rng.integers(4, 18))
            g = _random_graph(n, float(rng.uniform(0.3, 0.8)), rng)
            assert_matches_networkx(g)

    def test_random_sparse(self, rng):
        for _ in range(60):
            n = int(rng.integers(4, 25))
            g = _random_graph(n, float(rng.uniform(0.05, 0.25)), rng)
            assert_matches_networkx(g)

    def test_near_threshold_er(self, rng):
        # The regime the experiments live in: p around ln n / n.
        for _ in range(30):
            n = 30
            p = float(rng.uniform(0.5, 2.0)) * math.log(n) / n
            g = _random_graph(n, p, rng)
            assert_matches_networkx(g)


class TestLocalConnectivity:
    """The ISAP flow engine behind the k >= 3 closure scan, pair by pair."""

    def test_disconnected_pair_zero(self):
        assert local_node_connectivity(to_graph(4, [(0, 1), (2, 3)]), 0, 2) == 0

    def test_adjacent_pair_complete(self):
        # In K_n adjacent local connectivity is n - 1 (the direct edge
        # counts as one path).
        assert local_node_connectivity(nx.complete_graph(5), 0, 1) == 4

    def test_limit_caps_value(self):
        # A query stops at k paths, so it accepts every k up to κ(s, t).
        net = _ScanNetwork(6, edges_of(nx.complete_graph(6)).tolist())
        assert net.at_least(0, 1, 2)
        assert net.at_least(0, 1, 5)
        assert not net.at_least(0, 1, 6)

    def test_matches_networkx_nonadjacent(self, rng):
        for _ in range(40):
            n = int(rng.integers(5, 16))
            g = _random_graph(n, 0.4, rng)
            pairs = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if not g.has_edge(u, v)
            ]
            for u, v in pairs[:5]:
                assert local_node_connectivity(g, u, v) == (
                    nx.connectivity.local_node_connectivity(g, u, v)
                )

    def test_matches_networkx_adjacent(self, rng):
        for _ in range(25):
            n = int(rng.integers(5, 14))
            g = _random_graph(n, 0.5, rng)
            for u, v in edges_of(g).tolist()[:4]:
                assert local_node_connectivity(g, u, v) == (
                    nx.connectivity.local_node_connectivity(g, u, v)
                )


class TestRepeatedEdges:
    """Repeats and self-loops do not change the graph being decided.

    Without the collapse to distinct pairs, a repeated row takes a
    certificate forest slot, the certificate loses a distinct edge and
    k-connected inputs come back ``False``.
    """

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("form", ["same", "reversed", "self_loops"])
    def test_matches_networkx_on_the_simple_graph(self, k, form):
        rng = np.random.default_rng(1000 * k + len(form))
        for _ in range(40):
            n = int(rng.integers(k + 2, 14))
            edges = random_gnp_graph(n, float(rng.uniform(0.4, 0.9)), rng)
            extra = edges[rng.random(edges.shape[0]) < 0.7]
            if form == "reversed":
                extra = extra[:, ::-1]
            elif form == "self_loops":
                loops = rng.integers(0, n, size=3)
                extra = np.concatenate((extra, np.stack((loops, loops), axis=1)))
            messy = np.concatenate((edges, extra))
            messy = messy[rng.permutation(messy.shape[0])]
            kappa = nx.node_connectivity(to_graph(n, edges))
            assert is_k_connected_edges(n, messy, k) == (kappa >= k), (n, kappa)


def _two_sided(draw, k: int) -> nx.Graph:
    """Two cliques joined only through a (k - 1)-vertex separator.

    Every vertex has degree >= k, so the "no" answer has to come from
    the closure scan, not from the min-degree filter.
    """
    sizes = [draw(st.integers(2, 6)), draw(st.integers(2, 6))]
    n = k - 1 + sum(sizes)
    separator = list(range(k - 1))
    g = nx.empty_graph(n)
    first = k - 1
    for size in sizes:
        side = list(range(first, first + size))
        first += size
        g.add_edges_from((u, w) for u in side for w in side + separator if u < w)
    g.add_edges_from((u, w) for u in separator for w in separator if u < w)
    relabel = draw(st.permutations(range(n)))
    return nx.relabel_nodes(g, dict(enumerate(relabel)))


@st.composite
def kconn_cases(draw):
    """``(graph, k)``: random G(n, p) or a separator-planted "no" case."""
    k = draw(st.sampled_from([3, 4]))
    if draw(st.booleans()):
        return _two_sided(draw, k), k
    n = draw(st.integers(k + 1, 13))
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = nx.empty_graph(n)
    g.add_edges_from(pair for pair, on in zip(pairs, keep) if on)
    return g, k


@st.composite
def dense_cases(draw, max_nodes: int):
    """``(graph, k)``: dense G(n, p) well past the certificate bound.

    With ``p >= 0.5`` and ``n >= 20`` the input has more than ``k(n-1)``
    edges, so the certificate cuts edges; half the cases delete every
    edge between two sides of a planted ``(k - 1)``-vertex separator,
    so the answer is "no" with every degree still far above ``k``.
    """
    k = draw(st.sampled_from([3, 4]))
    n = draw(st.integers(20, max_nodes))
    p = draw(st.floats(0.5, 0.9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = nx.empty_graph(n)
    g.add_edges_from(map(tuple, random_gnp_graph(n, p, rng).tolist()))
    if draw(st.booleans()):
        side = rng.permutation(n)
        split = int(rng.integers(k + 2, n - k - 1))
        left, right = side[k - 1 : split], side[split:]
        g.remove_edges_from((int(a), int(b)) for a in left for b in right)
    assume(g.number_of_edges() > k * (n - 1))
    return g, k


class TestClosureDifferential:
    """The closure scan against ``networkx.node_connectivity``."""

    @staticmethod
    def _check_dense(case):
        g, k = case
        n, edges = g.number_of_nodes(), edges_of(g)
        assert edges.shape[0] > k * (n - 1)
        expected = nx.node_connectivity(g) >= k
        assert is_k_connected_edges(n, edges, k) == expected
        assert _closure_scan_edges(n, edges, edges, k) == expected

    @given(dense_cases(max_nodes=26))
    @settings(max_examples=30, deadline=None)
    def test_matches_networkx_on_dense_inputs(self, case):
        self._check_dense(case)

    @pytest.mark.slow
    @given(dense_cases(max_nodes=40))
    @settings(max_examples=200, deadline=None)
    def test_matches_networkx_on_large_dense_inputs(self, case):
        self._check_dense(case)

    @given(kconn_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_networkx(self, case):
        g, k = case
        n, edges = g.number_of_nodes(), edges_of(g)
        expected = nx.node_connectivity(g) >= k
        assert is_k_connected_edges(n, edges, k) == expected
        assert _closure_scan_edges(n, edges, edges, k) == expected

    @given(kconn_cases())
    @settings(max_examples=60, deadline=None)
    def test_pristine_labels_match_the_residual_walk(self, case):
        g, _ = case
        net = _ScanNetwork(g.number_of_nodes(), edges_of(g))
        for sink in range(g.number_of_nodes()):
            assert net.pristine_labels(sink) == net.sink_labels(sink)
