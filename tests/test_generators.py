"""Tests for the Erdős–Rényi generator and pair-index codec."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ParameterError
from repro.graphs.generators import (
    edge_to_pair_index,
    erdos_renyi_edges,
    expected_edge_count,
    pair_index_to_edge,
)


class TestPairIndexCodec:
    def test_enumeration_order(self):
        n = 4
        edges = pair_index_to_edge(n, np.arange(6))
        expect = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert [tuple(e) for e in edges] == expect

    @given(st.integers(2, 5000))
    @settings(max_examples=60)
    def test_roundtrip_random_indices(self, n):
        total = n * (n - 1) // 2
        rng = np.random.default_rng(n)
        idx = rng.integers(0, total, size=min(200, total))
        edges = pair_index_to_edge(n, idx)
        assert np.array_equal(edge_to_pair_index(n, edges), idx)
        assert (edges[:, 0] < edges[:, 1]).all()

    def test_boundary_indices(self):
        n = 100
        total = n * (n - 1) // 2
        edges = pair_index_to_edge(n, np.array([0, total - 1]))
        assert tuple(edges[0]) == (0, 1)
        assert tuple(edges[1]) == (n - 2, n - 1)

    def test_out_of_range_raises(self):
        with pytest.raises(ParameterError):
            pair_index_to_edge(4, np.array([6]))

    def test_large_n_no_float_error(self):
        # Indices near the top of a large triangle stress the sqrt path.
        n = 100_000
        total = n * (n - 1) // 2
        idx = np.array([0, 1, total // 2, total - 2, total - 1], dtype=np.int64)
        edges = pair_index_to_edge(n, idx)
        assert np.array_equal(edge_to_pair_index(n, edges), idx)


class TestErdosRenyi:
    def test_p_zero(self):
        assert erdos_renyi_edges(50, 0.0, seed=1).shape == (0, 2)

    def test_p_one_complete(self):
        edges = erdos_renyi_edges(20, 1.0, seed=1)
        assert edges.shape == (190, 2)

    def test_single_node(self):
        assert erdos_renyi_edges(1, 0.5, seed=1).shape == (0, 2)

    def test_canonical_rows(self):
        edges = erdos_renyi_edges(100, 0.1, seed=3)
        assert (edges[:, 0] < edges[:, 1]).all()
        keys = edges[:, 0] * 100 + edges[:, 1]
        assert np.unique(keys).size == keys.size  # no duplicates

    def test_deterministic_with_seed(self):
        a = erdos_renyi_edges(60, 0.2, seed=7)
        b = erdos_renyi_edges(60, 0.2, seed=7)
        assert np.array_equal(a, b)

    def test_edge_count_concentrates(self):
        n, p = 300, 0.1
        counts = [
            erdos_renyi_edges(n, p, seed=s).shape[0] for s in range(30)
        ]
        mean = np.mean(counts)
        expect = expected_edge_count(n, p)
        # 30 samples of Binomial(44850, 0.1): std ≈ 63, mean ≈ 4485.
        assert abs(mean - expect) < 5 * 63 / np.sqrt(30) + 1

    def test_sparse_backend_matches_dense_statistics(self):
        n, p = 400, 0.02
        dense_counts = [
            erdos_renyi_edges(n, p, seed=s, method="dense").shape[0]
            for s in range(25)
        ]
        sparse_counts = [
            erdos_renyi_edges(n, p, seed=1000 + s, method="sparse").shape[0]
            for s in range(25)
        ]
        expect = expected_edge_count(n, p)
        sd = np.sqrt(expect * (1 - p))
        assert abs(np.mean(dense_counts) - expect) < 5 * sd / 5
        assert abs(np.mean(sparse_counts) - expect) < 5 * sd / 5

    def test_sparse_backend_no_duplicates(self):
        edges = erdos_renyi_edges(500, 0.01, seed=11, method="sparse")
        keys = edges[:, 0] * 500 + edges[:, 1]
        assert np.unique(keys).size == keys.size

    def test_unknown_method_raises(self):
        with pytest.raises(ParameterError):
            erdos_renyi_edges(10, 0.5, method="quantum")

    def test_invalid_probability(self):
        with pytest.raises(ParameterError):
            erdos_renyi_edges(10, 1.5)

    def test_marginal_rate_per_edge(self):
        # Each specific pair appears with probability ~p across seeds.
        n, p, reps = 30, 0.25, 400
        hits = 0
        for s in range(reps):
            edges = erdos_renyi_edges(n, p, seed=s)
            hits += int(((edges[:, 0] == 0) & (edges[:, 1] == 1)).any())
        rate = hits / reps
        assert abs(rate - p) < 0.08
