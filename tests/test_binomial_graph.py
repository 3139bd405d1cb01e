"""Tests for the binomial q-intersection graph and the Lemma 5 coupling."""

from __future__ import annotations

import numpy as np

from repro.keygraphs.binomial_graph import (
    binomial_intersection_edges,
    coupled_ring_pair,
)
from repro.keygraphs.uniform_graph import edges_from_rings


class TestBinomialGraph:
    def test_edges_valid(self):
        edges = binomial_intersection_edges(40, 0.08, 150, 1, seed=1)
        if edges.size:
            assert edges.min() >= 0 and edges.max() < 40
            assert (edges[:, 0] < edges[:, 1]).all()

    def test_zero_probability_no_edges(self):
        assert binomial_intersection_edges(10, 0.0, 50, 1, seed=2).shape == (0, 2)

    def test_edge_density_increases_with_x(self):
        counts = []
        for x in (0.02, 0.05, 0.1):
            total = sum(
                binomial_intersection_edges(50, x, 150, 1, seed=s).shape[0]
                for s in range(10)
            )
            counts.append(total)
        assert counts[0] < counts[1] < counts[2]


class TestCoupledRingPair:
    def test_success_flag_matches_sizes(self):
        for seed in range(20):
            uniform, binomial, success = coupled_ring_pair(
                30, 12, 0.05, 200, seed=seed
            )
            sizes_ok = all(r.size <= 12 for r in binomial)
            if success:
                assert sizes_ok
            else:
                assert any(r.size > 12 for r in binomial)

    def test_subset_property_on_success(self):
        for seed in range(20):
            uniform, binomial, success = coupled_ring_pair(
                30, 12, 0.04, 200, seed=seed
            )
            if not success:
                continue
            for i, sub in enumerate(binomial):
                assert np.isin(sub, uniform[i]).all(), f"node {i} not a sub-ring"

    def test_graph_subset_property_on_success(self):
        # The point of Lemma 5: H_q edges embed into G_q edges.
        # x = 0.03 keeps Bin(250, x) comfortably below K = 15 so most
        # couplings succeed.
        hits = 0
        for seed in range(15):
            uniform, binomial, success = coupled_ring_pair(
                40, 15, 0.03, 250, seed=seed
            )
            if not success:
                continue
            hits += 1
            g_edges = {tuple(map(int, e)) for e in edges_from_rings(uniform, 2)}
            h_edges = {tuple(map(int, e)) for e in edges_from_rings(binomial, 2)}
            assert h_edges <= g_edges
        assert hits > 0  # the coupling succeeded at least sometimes

    def test_uniform_part_is_proper_ring(self):
        uniform, _, _ = coupled_ring_pair(10, 5, 0.02, 50, seed=1)
        assert uniform.shape == (10, 5)
        assert (np.diff(uniform, axis=1) > 0).all()

    def test_deterministic(self):
        a = coupled_ring_pair(15, 6, 0.05, 80, seed=42)
        b = coupled_ring_pair(15, 6, 0.05, 80, seed=42)
        assert np.array_equal(a[0], b[0])
        assert all(np.array_equal(x, y) for x, y in zip(a[1], b[1]))
        assert a[2] == b[2]

    def test_high_x_forces_failure(self):
        # x P far above K: every node draws too many keys.
        _, _, success = coupled_ring_pair(10, 3, 0.9, 100, seed=5)
        assert not success
