"""Ablation bench: generator backend throughput.

Compares the two exact ``G_q`` generation strategies (inverted-index
pair counting vs the test oracle's dense Gram matrix) and the two exact
ER samplers (dense Bernoulli sweep vs sparse Floyd sampling) at the
Figure 1 scale.
DESIGN.md §6 predicts the inverted index wins at the paper's density;
this bench verifies the numbers behind that design choice.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.generators import erdos_renyi_edges
from repro.keygraphs.rings import sample_uniform_rings
from repro.keygraphs.uniform_graph import edges_from_rings
from tests.oracle import edges_dense

N, K, P, Q = 1000, 60, 10000, 2


@pytest.fixture(scope="module")
def rings() -> np.ndarray:
    return sample_uniform_rings(N, K, P, seed=42)


def test_bench_keygraph_inverted_backend(benchmark, rings):
    benchmark(edges_from_rings, rings, Q)


def test_bench_keygraph_dense_backend(benchmark, rings):
    benchmark(edges_dense, rings, Q)


def test_bench_ring_sampling(benchmark):
    seeds = iter(range(100000))

    def sample():
        return sample_uniform_rings(N, K, P, seed=next(seeds))

    benchmark(sample)


def test_bench_er_dense(benchmark):
    seeds = iter(range(100000))
    benchmark(lambda: erdos_renyi_edges(1000, 0.01, seed=next(seeds), method="dense"))


def test_bench_er_sparse(benchmark):
    seeds = iter(range(100000))
    benchmark(lambda: erdos_renyi_edges(1000, 0.01, seed=next(seeds), method="sparse"))


def test_backends_agree_at_bench_scale(benchmark, rings):
    """Correctness rider: both strategies, one timing, identical output."""
    inv = benchmark(edges_from_rings, rings, Q)
    dense = edges_dense(rings, Q)
    assert np.array_equal(inv, dense)
