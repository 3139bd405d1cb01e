"""Kernel benches: the three hot-path kernels in isolation.

Each bench also checks its kernel against an independent answer: the
min-label union against networkx components, the overlap counter
against a sparse incidence Gram product.  The k-connectivity bench
pins the certificate's acceptance angle at k = 3, the smallest k that
builds one (k = 2 runs Tarjan on the simple graph): the exact decision
(Nagamochi–Ibaraki certificate from one maximum-adjacency scan, then
the bootstrap-closure scan) must agree with the same scan run on the
uncertified edge array while the certificate keeps the per-decision
cost low.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import scipy.sparse as sp

from benchmarks.conftest import emit, kconn_fixture
from repro.graphs.generators import erdos_renyi_edges
from repro.graphs.vertex_connectivity import _closure_scan_edges
from repro.kernels import get_backend
from repro.keygraphs.rings import sample_uniform_rings


def test_bench_min_label_kernel(benchmark):
    backend = get_backend()
    edges = erdos_renyi_edges(2000, 0.004, seed=3)
    u, v = edges[:, 0].copy(), edges[:, 1].copy()

    def run():
        for _ in range(20):
            backend.min_label_components(2000, u, v)

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)
    labels = backend.min_label_components(2000, u, v)
    graph = nx.Graph()
    graph.add_nodes_from(range(2000))
    graph.add_edges_from(edges.tolist())
    expected = np.empty(2000, dtype=np.int64)
    for component in nx.connected_components(graph):
        expected[list(component)] = min(component)
    assert np.array_equal(labels, expected)


def test_bench_overlap_kernel(benchmark):
    backend = get_backend()
    rings = sample_uniform_rings(2000, 45, 10000, seed=11)
    node_ids = np.repeat(np.arange(2000, dtype=np.int64), 45)
    key_ids = rings.astype(np.int64).ravel()

    def run():
        for _ in range(3):
            backend.overlap_counts(node_ids, key_ids, 2000)

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)
    keys, counts = backend.overlap_counts(node_ids, key_ids, 2000)
    incidence = sp.csr_matrix(
        (np.ones(node_ids.size, dtype=np.int64), (node_ids, key_ids)),
        shape=(2000, 10000),
    )
    gram = sp.triu(incidence @ incidence.T, k=1).tocoo()
    order = np.argsort(gram.row * 2000 + gram.col)
    assert np.array_equal(keys, (gram.row * 2000 + gram.col)[order])
    assert np.array_equal(counts, gram.data[order])


def test_bench_kconn_certificate_decision(benchmark):
    backend = get_backend()
    n, edges = kconn_fixture()
    cert = backend.sparse_certificate(n, edges, 3)
    assert cert.shape[0] <= 3 * (n - 1)
    with_cert = backend.k_connected(n, edges, 3)

    def run():
        for _ in range(3):
            backend.k_connected(n, edges, 3)

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)
    plain = _closure_scan_edges(n, edges, edges, 3)
    assert with_cert == plain
    emit(
        "kernels: exact k=3 decision",
        f"n={n} m={edges.shape[0]} cert_m={cert.shape[0]} "
        f"decision={with_cert} (certificate == plain)",
    )


def test_bench_kconn_plain_baseline(benchmark):
    """Certificate-off baseline: the closure scan on the full edge array."""
    n, edges = kconn_fixture()

    def run():
        for _ in range(3):
            _closure_scan_edges(n, edges, edges, 3)

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)
