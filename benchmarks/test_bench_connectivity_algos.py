"""Ablation bench: connectivity-decision algorithms.

Times the per-sample cost of each k-connectivity decision path at the
scales the experiments use — union-find (k=1), array-first Tarjan
(k=2), and the certificate + bootstrap-closure ISAP scan (k=3) — on
near-threshold topologies where the decisions are hardest.  All three
deciders take the ``(m, 2)`` edge array directly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.scaling import channel_prob_for_alpha
from repro.graphs.biconnectivity import is_biconnected_edges
from repro.graphs.unionfind import is_connected_edges
from repro.graphs.vertex_connectivity import is_k_connected_edges
from repro.keygraphs.uniform_graph import uniform_intersection_edges


def _threshold_sample(n: int, k: int, seed: int):
    """One q = 2 topology at alpha = 1 of the k-connectivity threshold."""
    p = channel_prob_for_alpha(n, 70, 10000, 2, 1.0, k)
    rng = np.random.default_rng(seed)
    edges = uniform_intersection_edges(n, 70, 10000, 2, seed=rng)
    return n, edges[rng.random(edges.shape[0]) < p]


@pytest.fixture(scope="module")
def big_sample():
    return _threshold_sample(1000, 1, seed=0)


@pytest.fixture(scope="module")
def mid_sample():
    return _threshold_sample(300, 3, seed=1)


def test_bench_unionfind_k1(benchmark, big_sample):
    n, edges = big_sample
    benchmark(is_connected_edges, n, edges)


def test_bench_tarjan_k2(benchmark, big_sample):
    n, edges = big_sample
    benchmark(is_biconnected_edges, n, edges)


def test_bench_even_dinic_k3(benchmark, mid_sample):
    """The k = 3 decision: certificate, then the bootstrap-closure ISAP scan.

    The name predates the move from Dinic to ISAP queries and from the
    full pivot scan to the closure.
    """
    n, edges = mid_sample
    benchmark(is_k_connected_edges, n, edges, 3)


def test_decisions_consistent(mid_sample):
    """Correctness rider: the three deciders agree on nesting."""
    n, edges = mid_sample
    k3 = is_k_connected_edges(n, edges, 3)
    k2 = is_biconnected_edges(n, edges)
    k1 = is_connected_edges(n, edges)
    if k3:
        assert k2
    if k2:
        assert k1
