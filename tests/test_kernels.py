"""Tests for the hot-path kernels (:mod:`repro.kernels`).

Four pillars:

1. the kernel set — :func:`repro.kernels.get_backend` returns one
   instance whose class carries every kernel, so every call site (and a
   profiler wrapping the class) sees the same methods;
2. the Nagamochi–Ibaraki sparse certificate (the first k forests of
   one maximum-adjacency scan) — structural guarantees (subset,
   <= k(n-1) edges), the exhaustive small-graph property that ``G - S``
   and ``H - S`` have the same components for every ``|S| < k``, and
   the certificate-equivalence property: ``is_k_connected_edges``
   (Tarjan on the simple graph at k = 2, certificate then closure scan
   at k >= 3) agrees bit-for-bit with the uncertified deciders on the
   full edge array on random ER and key-ring graphs across a k grid,
   including the k <= 2 shortcut paths, n < k + 1 edge cases and
   malformed edge arrays;
3. worker invariance — study metrics on the shared Figure-1 fixture
   (every kernel on) are identical serial and pooled, warm pool on and
   off;
4. the overlap threshold — a deployment sampled with the ``q_min``
   threshold inside the overlap kernel holds the same candidates,
   counts and channel uniforms as one rebuilt from the all-pairs
   output and a post-filter (brute-force parity of the kernel itself
   is in ``tests/test_uniform_graph.py``).
"""

from __future__ import annotations

import itertools

import networkx as nx
import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graphs.biconnectivity import is_biconnected_edges
from repro.graphs.generators import erdos_renyi_edges
from repro.graphs.unionfind import is_connected_edges
from repro.graphs.vertex_connectivity import _closure_scan_edges, is_k_connected_edges
from repro.kernels import get_backend, resolve_backend_name
from repro.kernels.reference import ReferenceBackend, scan_first_certificate
from repro.keygraphs.rings import sample_uniform_rings
from repro.keygraphs.uniform_graph import (
    overlap_counts_from_rings,
    uniform_intersection_edges,
)
from repro.study import MetricSpec, Scenario, Study
from repro.study.metrics import sample_deployment
from tests.oracle import to_graph
from tests.conftest import POOL_STARTS, prepare_pool

def _kappa(n, edges):
    """Exact κ from networkx, the reference independent of this package."""
    return nx.node_connectivity(to_graph(n, edges))


def _plain_decision(n, edges, k):
    """The uncertified decider on the full edge array (no certificate pass)."""
    if k <= 0:
        return True
    if n < k + 1:
        return False
    if k == 1:
        return is_connected_edges(n, edges)
    if k == 2:
        return is_biconnected_edges(n, edges)
    return _closure_scan_edges(n, edges, edges, k)


def _key_ring_graph(n, ring, pool, p, seed):
    """A q=2 key-ring graph with Bernoulli(p) channel thinning."""
    edges = uniform_intersection_edges(n, ring, pool, 2, seed=seed)
    if p < 1.0:
        rng = np.random.default_rng(seed + 1)
        edges = edges[rng.random(edges.shape[0]) < p]
    return edges


class TestKernelSet:
    def test_one_instance_carries_every_kernel(self):
        backend = get_backend()
        assert backend is get_backend()
        assert type(backend) is ReferenceBackend
        assert resolve_backend_name() == "reference"
        for name in (
            "min_label_components",
            "overlap_counts",
            "sparse_certificate",
            "k_connected",
        ):
            assert name in vars(ReferenceBackend), name


class TestSparseCertificate:
    def test_subset_and_size_bound(self):
        rng = np.random.default_rng(7)
        for n, p in ((30, 0.4), (60, 0.2), (25, 0.9)):
            edges = erdos_renyi_edges(n, p, rng)
            for k in (1, 2, 3, 4):
                cert = scan_first_certificate(n, edges, k)
                assert cert.shape[0] <= k * (n - 1)
                keys = set((edges[:, 0] * n + edges[:, 1]).tolist())
                cert_keys = (cert[:, 0] * n + cert[:, 1]).tolist()
                assert set(cert_keys) <= keys
                assert len(cert_keys) == len(set(cert_keys))

    def test_sparse_input_returned_unchanged(self):
        edges = np.array([[0, 1], [1, 2], [2, 3]], dtype=np.int64)
        cert = scan_first_certificate(4, edges, 2)
        assert cert is edges

    def test_first_forest_spans_components(self):
        # k = 1 certificate of a connected graph is a spanning tree.
        rng = np.random.default_rng(3)
        edges = erdos_renyi_edges(40, 0.3, rng)
        if nx.is_connected(to_graph(40, edges)):
            cert = scan_first_certificate(40, edges, 1)
            assert cert.shape[0] == 39
            assert nx.is_connected(to_graph(40, cert))

    def test_components_agree_after_every_small_removal(self):
        # Exhaustive: for every S with |S| < k, G - S and H - S have the
        # same components (what the closure's G/H split relies on).
        backend = get_backend()
        rng = np.random.default_rng(22)
        checks = cut = 0
        for n in (6, 8, 10):
            for p in (0.3, 0.5, 0.8):
                for _ in range(8):
                    edges = erdos_renyi_edges(n, p, rng)
                    for k in (1, 2, 3, 4):
                        cert = scan_first_certificate(n, edges, k)
                        cut += cert.shape[0] < edges.shape[0]
                        for size in range(k):
                            for removed in itertools.combinations(range(n), size):
                                keep = np.ones(n, dtype=bool)
                                keep[list(removed)] = False
                                labels = [
                                    backend.min_label_components(
                                        n, *(e[keep[e[:, 0]] & keep[e[:, 1]]].T)
                                    )[keep]
                                    for e in (edges, cert)
                                ]
                                assert np.array_equal(*labels), (n, k, removed)
                                checks += 1
        assert checks > 10000 and cut > 50, (checks, cut)

    def test_certificate_preserves_kappa_up_to_k(self):
        # The certificate preserves the decision for every k' <= k.
        rng = np.random.default_rng(11)
        for _ in range(5):
            edges = erdos_renyi_edges(24, 0.5, rng)
            k = 4
            cert = scan_first_certificate(24, edges, k)
            assert min(_kappa(24, cert), k) == min(_kappa(24, edges), k)


class TestCertificateEquivalence:
    """Satellite: cert and plain decisions agree bit-for-bit."""

    def test_er_graphs_across_k_grid(self):
        rng = np.random.default_rng(2017)
        for n in (8, 15, 30, 60):
            for p in (0.05, 0.15, 0.4, 0.8):
                edges = erdos_renyi_edges(n, p, rng)
                for k in range(0, 6):
                    plain = _plain_decision(n, edges, k)
                    with_cert = is_k_connected_edges(n, edges, k)
                    assert plain == with_cert, (n, p, k)

    def test_key_ring_graphs_across_k_grid(self):
        for seed, p in ((1, 1.0), (2, 0.6), (3, 0.35)):
            n = 80
            edges = _key_ring_graph(n, 18, 600, p, seed)
            for k in (1, 2, 3, 4):
                plain = _plain_decision(n, edges, k)
                with_cert = is_k_connected_edges(n, edges, k)
                assert plain == with_cert, (seed, p, k)

    def test_k_le_2_shortcut_paths(self):
        # k <= 2 goes through the min-label union / Tarjan; the decision
        # must agree with networkx and with Tarjan on the full array.
        rng = np.random.default_rng(5)
        for n, p in ((12, 0.2), (40, 0.1), (40, 0.3)):
            edges = erdos_renyi_edges(n, p, rng)
            assert is_k_connected_edges(n, edges, 1) == nx.is_connected(to_graph(n, edges))
            assert is_k_connected_edges(n, edges, 2) == is_biconnected_edges(n, edges)

    def test_small_n_edge_cases(self):
        # n < k + 1 is False; k <= 0 is True.
        def complete(n):
            return np.array(list(itertools.combinations(range(n), 2)), dtype=np.int64)

        empty = np.empty((0, 2), dtype=np.int64)
        assert is_k_connected_edges(3, empty, 0)
        assert is_k_connected_edges(1, empty, 0)
        assert not is_k_connected_edges(3, complete(3), 3)
        assert not is_k_connected_edges(4, complete(4), 4)
        assert is_k_connected_edges(4, complete(4), 3)
        assert not is_k_connected_edges(3, empty, 1)
        assert not is_k_connected_edges(2, empty, 2)

    def test_malformed_edge_arrays_raise(self):
        # A negative id must not wrap onto node n - 1, and an id >= n
        # must not surface as a bare IndexError/ValueError.
        negative = [[0, 1], [1, 2], [2, -1]]
        for k in (1, 2, 3):
            with pytest.raises(GraphError):
                is_k_connected_edges(4, negative, k)
        with pytest.raises(GraphError):
            is_k_connected_edges(4, [[0, 1], [1, 2], [2, 5]], 1)
        with pytest.raises(GraphError):
            is_k_connected_edges(4, [[0, 1, 2]], 1)

    def test_matches_exact_kappa(self):
        rng = np.random.default_rng(99)
        for _ in range(8):
            edges = erdos_renyi_edges(14, 0.45, rng)
            kappa = _kappa(14, edges)
            for k in range(1, 6):
                assert is_k_connected_edges(14, edges, k) == (kappa >= k)


def _fixture_study():
    """The shared Figure-1-style fixture: every kernel on."""
    return Study(
        (
            Scenario(
                name="consistency",
                num_nodes=70,
                pool_size=600,
                ring_sizes=(14, 18),
                curves=((2, 1.0), (2, 0.6), (3, 1.0)),
                metrics=(
                    MetricSpec("connectivity"),
                    MetricSpec("k_connectivity", k=2),
                    MetricSpec("k_connectivity", k=3),
                    MetricSpec("min_degree", k=3),
                    MetricSpec("giant_fraction"),
                    MetricSpec("degree_count", h=2),
                ),
                trials=5,
                seed=424242,
            ),
        )
    )


class TestWorkerInvariance:
    @pytest.mark.parametrize("pool_start", POOL_STARTS)
    def test_warm_pool_on_and_off(self, pool_start):
        serial = _fixture_study().run(workers=1)
        prepare_pool(pool_start, 2)
        pooled = _fixture_study().run(workers=2)
        np.testing.assert_array_equal(
            serial["consistency"].values, pooled["consistency"].values
        )


class TestOverlapThreshold:
    @pytest.mark.parametrize("q_min", [1, 2, 3])
    def test_deployment_equals_post_filtered_rebuild(self, q_min):
        n, pool, ring, seed = 200, 2000, 30, 20171
        dep = sample_deployment(n, pool, ring, q_min, np.random.default_rng(seed))
        # The same draws, with the threshold applied after an all-pairs
        # count: rings, then one channel uniform per candidate.
        rng = np.random.default_rng(seed)
        rings = sample_uniform_rings(n, ring, pool, rng)
        pair_keys, counts = overlap_counts_from_rings(rings)
        keep = counts >= q_min
        uniforms = rng.random(int(keep.sum()))
        assert dep.candidates.size > 0
        assert np.array_equal(dep.candidates, pair_keys[keep])
        assert np.array_equal(dep.counts, counts[keep])
        assert np.array_equal(dep.uniforms, uniforms)
        assert dep.candidates.dtype == np.int64 and dep.counts.dtype == np.int64
