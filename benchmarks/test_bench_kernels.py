"""Per-backend kernel benches: the three hot-path kernels in isolation.

Parametrized over every *available* registered backend (the default
container runs reference only; the CI numba leg adds the jitted
backend).  The k-connectivity bench also pins the certificate's
acceptance angle: the exact decision (Nagamochi–Ibaraki certificate,
then the bootstrap-closure scan) must agree with the same scan run on
the uncertified edge array while the certificate keeps the
per-decision cost low.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import emit, kconn_fixture
from repro.graphs.generators import erdos_renyi_edges
from repro.graphs.vertex_connectivity import _closure_scan_edges
from repro.kernels import available_backends, get_backend
from repro.keygraphs.rings import sample_uniform_rings

BACKENDS = [b["name"] for b in available_backends() if b["available"]]


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_bench_min_label_kernel(benchmark, backend_name):
    backend = get_backend(backend_name)
    edges = erdos_renyi_edges(2000, 0.004, seed=3)
    u, v = edges[:, 0].copy(), edges[:, 1].copy()
    backend.min_label_components(2000, u, v)  # warm (JIT compile)

    def run():
        for _ in range(20):
            backend.min_label_components(2000, u, v)

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)
    labels = backend.min_label_components(2000, u, v)
    reference = get_backend("reference").min_label_components(2000, u, v)
    assert np.array_equal(labels, reference)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_bench_overlap_kernel(benchmark, backend_name):
    backend = get_backend(backend_name)
    rings = sample_uniform_rings(2000, 45, 10000, seed=11)
    node_ids = np.repeat(np.arange(2000, dtype=np.int64), 45)
    key_ids = rings.astype(np.int64).ravel()
    backend.overlap_counts(node_ids, key_ids, 2000)  # warm (JIT compile)

    def run():
        for _ in range(3):
            backend.overlap_counts(node_ids, key_ids, 2000)

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)
    keys, counts = backend.overlap_counts(node_ids, key_ids, 2000)
    rk, rc = get_backend("reference").overlap_counts(node_ids, key_ids, 2000)
    assert np.array_equal(keys, rk) and np.array_equal(counts, rc)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_bench_kconn_certificate_decision(benchmark, backend_name):
    backend = get_backend(backend_name)
    n, edges = kconn_fixture()
    cert = backend.sparse_certificate(n, edges, 3)
    assert cert.shape[0] <= 3 * (n - 1)
    with_cert = backend.k_connected(n, edges, 3)  # warm

    def run():
        for _ in range(3):
            backend.k_connected(n, edges, 3)

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)
    plain = _closure_scan_edges(n, edges, edges, 3)
    assert with_cert == plain
    emit(
        f"kernels[{backend_name}]: exact k=3 decision",
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
