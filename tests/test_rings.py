"""Tests for key-ring samplers."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import binom

from repro.exceptions import ParameterError
from repro.keygraphs.rings import (
    rings_to_incidence,
    sample_binomial_rings,
    sample_class_labels,
    sample_class_rings,
    sample_uniform_rings,
)
from repro.keygraphs.uniform_graph import overlap_counts_from_rings
from repro.utils.rng import as_generator

class TestUniformRings:
    def test_shape_and_dtype(self):
        rings = sample_uniform_rings(10, 5, 50, seed=1)
        assert rings.shape == (10, 5)
        assert rings.dtype == np.int64

    def test_rows_sorted_distinct(self):
        rings = sample_uniform_rings(200, 30, 200, seed=2)
        assert (np.diff(rings, axis=1) > 0).all()

    def test_ids_in_pool(self):
        rings = sample_uniform_rings(50, 10, 40, seed=3)
        assert rings.min() >= 0 and rings.max() < 40

    def test_full_pool_ring(self):
        rings = sample_uniform_rings(5, 7, 7, seed=4)
        assert np.array_equal(rings, np.tile(np.arange(7), (5, 1)))

    def test_deterministic(self):
        a = sample_uniform_rings(20, 8, 100, seed=9)
        b = sample_uniform_rings(20, 8, 100, seed=9)
        assert np.array_equal(a, b)

    def test_dense_fallback_region(self):
        # K(K-1)/2P > 1 triggers argpartition path; rows still valid.
        rings = sample_uniform_rings(30, 40, 60, seed=5)
        assert rings.shape == (30, 40)
        assert (np.diff(rings, axis=1) > 0).all()

    def test_key_marginal_uniform(self):
        # Each key appears with probability K/P per node.
        n, K, P = 4000, 10, 50
        rings = sample_uniform_rings(n, K, P, seed=6)
        counts = np.bincount(rings.ravel(), minlength=P)
        rate = counts / n
        assert np.abs(rate - K / P).max() < 0.03

    def test_pairwise_overlap_mean(self):
        # Overlap of two rings should average K²/P.
        n, K, P = 1000, 12, 300
        rings = sample_uniform_rings(n, K, P, seed=7)
        overlaps = [
            np.intersect1d(rings[2 * i], rings[2 * i + 1]).size
            for i in range(n // 2)
        ]
        assert np.mean(overlaps) == pytest.approx(K * K / P, rel=0.15)

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            sample_uniform_rings(10, 0, 50)
        with pytest.raises(ParameterError):
            sample_uniform_rings(10, 51, 50)


def _legacy_uniform_rings(num_nodes, key_ring_size, pool_size, seed):
    """The pre-fix rejection loop, inlined as a stream-layout reference.

    The historical loop re-checked *every* row after each redraw pass
    instead of only the redrawn ones.  Accepted rows can never turn bad
    again, so the set of bad rows — and with it the number of draws per
    pass — is identical either way; the fix changed the bookkeeping,
    not the consumed random stream.
    """
    rng = as_generator(seed)
    n, k, p = num_nodes, key_ring_size, pool_size
    rings = np.sort(rng.integers(0, p, size=(n, k), dtype=np.int64), axis=1)
    bad = (np.diff(rings, axis=1) == 0).any(axis=1)
    while bad.any():
        rings[bad] = np.sort(
            rng.integers(0, p, size=(int(bad.sum()), k), dtype=np.int64), axis=1
        )
        bad = (np.diff(rings, axis=1) == 0).any(axis=1)
    return rings


class TestUniformRingsStreamPinned:
    """The rejection-loop fix must not move a single random draw."""

    @pytest.mark.parametrize("seed", [0, 7, 991])
    def test_bit_identical_to_legacy_loop_under_forced_collisions(self, seed):
        # Density K(K-1)/2P = 0.7: roughly half the rows collide on the
        # first pass, so the loop runs several rounds and any change in
        # redraw accounting would desynchronize the stream immediately.
        n, k, p = 64, 8, 40
        got = sample_uniform_rings(n, k, p, seed=seed)
        ref = _legacy_uniform_rings(n, k, p, seed)
        assert np.array_equal(got, ref)

    def test_multiple_rejection_rounds_actually_happen(self):
        # Guard the fixture: the pin above is vacuous if collisions are
        # rare enough that the loop never iterates.
        rng = as_generator(3)
        first = np.sort(rng.integers(0, 40, size=(64, 8), dtype=np.int64), axis=1)
        assert (np.diff(first, axis=1) == 0).any(axis=1).sum() > 5


class TestClassLabels:
    def test_distribution_matches_mu(self):
        mu = (0.2, 0.3, 0.5)
        labels = sample_class_labels(5000, mu, seed=1)
        rates = np.bincount(labels, minlength=3) / 5000
        assert np.abs(rates - np.asarray(mu)).max() < 0.03

    def test_deterministic(self):
        a = sample_class_labels(100, (0.4, 0.6), seed=2)
        b = sample_class_labels(100, (0.4, 0.6), seed=2)
        assert np.array_equal(a, b)

    def test_one_uniform_per_node_stream_layout(self):
        # The draw contract: exactly one uniform per node through
        # inverse-CDF lookup, independent of the number of classes.
        mu = (0.25, 0.25, 0.5)
        labels = sample_class_labels(200, mu, seed=5)
        uniforms = as_generator(5).random(200)
        edges = np.cumsum(np.asarray(mu))
        edges[-1] = 1.0
        assert np.array_equal(labels, np.searchsorted(edges, uniforms, side="right"))

    def test_invalid_mu(self):
        with pytest.raises(ParameterError):
            sample_class_labels(10, (0.5, 0.4))  # sums to 0.9
        with pytest.raises(ParameterError):
            sample_class_labels(10, (1.5, -0.5))
        with pytest.raises(ParameterError):
            sample_class_labels(10, ())


class TestClassRings:
    def test_sizes_follow_labels(self):
        labels = sample_class_labels(300, (0.5, 0.5), seed=3)
        rings = sample_class_rings(labels, (10, 25), 200, seed=4)
        sizes = np.array([r.size for r in rings])
        assert np.array_equal(sizes, np.where(labels == 0, 10, 25))

    def test_rows_sorted_distinct_in_pool(self):
        labels = sample_class_labels(200, (0.3, 0.7), seed=6)
        rings = sample_class_rings(labels, (8, 20), 100, seed=7)
        for ring in rings:
            assert (np.diff(ring) > 0).all()
            assert ring.min() >= 0 and ring.max() < 100

    def test_deterministic(self):
        labels = sample_class_labels(50, (0.5, 0.5), seed=8)
        a = sample_class_rings(labels, (5, 9), 60, seed=9)
        b = sample_class_rings(labels, (5, 9), 60, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_per_class_key_marginal_uniform(self):
        # Within a class of ring size K the per-key rate must be K/P.
        n, P = 4000, 50
        labels = sample_class_labels(n, (0.5, 0.5), seed=10)
        rings = sample_class_rings(labels, (5, 15), P, seed=11)
        for cls, K in ((0, 5), (1, 15)):
            members = np.flatnonzero(labels == cls)
            counts = np.bincount(
                np.concatenate([rings[i] for i in members]), minlength=P
            )
            assert np.abs(counts / members.size - K / P).max() < 0.05

    def test_invalid_inputs(self):
        labels = np.array([0, 1, 2])
        with pytest.raises(ParameterError):
            sample_class_rings(labels, (5, 9), 60)  # label 2 out of range
        with pytest.raises(ParameterError):
            sample_class_rings(np.array([0]), (70,), 60)  # ring > pool
        with pytest.raises(ParameterError):
            sample_class_rings(np.empty(0, dtype=np.int64), (5,), 60)


class TestBinomialRings:
    def test_count_and_sorted(self):
        rings = sample_binomial_rings(50, 0.1, 200, seed=1)
        assert len(rings) == 50
        for ring in rings:
            assert (np.diff(ring) > 0).all() if ring.size > 1 else True

    def test_ids_in_pool(self):
        rings = sample_binomial_rings(50, 0.2, 100, seed=2)
        for ring in rings:
            if ring.size:
                assert ring.min() >= 0 and ring.max() < 100

    def test_zero_probability(self):
        rings = sample_binomial_rings(10, 0.0, 100, seed=3)
        assert all(r.size == 0 for r in rings)

    def test_one_probability(self):
        rings = sample_binomial_rings(5, 1.0, 30, seed=4)
        assert all(np.array_equal(r, np.arange(30)) for r in rings)

    def test_size_distribution_matches_binomial(self):
        n, x, P = 3000, 0.05, 200
        rings = sample_binomial_rings(n, x, P, seed=5)
        sizes = np.array([r.size for r in rings])
        assert sizes.mean() == pytest.approx(P * x, rel=0.05)
        assert sizes.var() == pytest.approx(float(binom.var(P, x)), rel=0.15)

    def test_dense_branch(self):
        # x > 1/2 forces the partial-shuffle branch per node.
        rings = sample_binomial_rings(20, 0.9, 50, seed=6)
        sizes = np.array([r.size for r in rings])
        assert sizes.mean() == pytest.approx(45.0, rel=0.1)


class TestBinomialFillPaths:
    """Each of the three fill paths draws uniform subsets of its size.

    The sampler routes every ring through one of three fills — padded
    rejection, mid-size distinct draws, or near-full partial shuffle —
    chosen per row by the collision exponent.  A bias in any path would
    skew the per-key marginal, which for binomial rings is exactly
    ``x`` regardless of the realized ring size.
    """

    # (pool, x, trials, dominant-path predicate over realized sizes)
    CASES = [
        pytest.param(
            200, 0.05, 3000,
            lambda s, P: s * (s - 1) <= 2.0 * P,
            0.025, id="sparse-rejection",
        ),
        pytest.param(
            60, 0.3, 3000,
            lambda s, P: (s * (s - 1) > 2.0 * P) & (s <= P // 2),
            0.05, id="mid-distinct-draws",
        ),
        pytest.param(
            40, 0.85, 2000,
            lambda s, P: s > P // 2,
            0.05, id="dense-partial-shuffle",
        ),
    ]

    @pytest.mark.parametrize("P, x, n, in_path, tol", CASES)
    def test_per_key_marginal_is_x(self, P, x, n, in_path, tol):
        rings = sample_binomial_rings(n, x, P, seed=13)
        sizes = np.array([r.size for r in rings])
        # Guard: the intended path must actually dominate at these
        # parameters, otherwise the marginal check tests nothing new.
        assert np.mean(in_path(sizes, P)) > 0.8
        counts = np.bincount(np.concatenate(rings), minlength=P)
        assert np.abs(counts / n - x).max() < tol

    @pytest.mark.parametrize("P, x, n, in_path, tol", CASES)
    def test_rows_valid_on_every_path(self, P, x, n, in_path, tol):
        rings = sample_binomial_rings(200, x, P, seed=14)
        for ring in rings:
            if ring.size:
                assert (np.diff(ring) > 0).all()
                assert ring.min() >= 0 and ring.max() < P


class TestOverlapOnRaggedRings:
    """Mixed-size class rings count overlaps exactly."""

    @staticmethod
    def _brute_force(rings):
        n = len(rings)
        expected = {}
        for u in range(n):
            for v in range(u + 1, n):
                shared = np.intersect1d(rings[u], rings[v]).size
                if shared:
                    expected[u * n + v] = shared
        return expected

    def test_class_rings_match_brute_force(self):
        labels = sample_class_labels(60, (0.4, 0.4, 0.2), seed=15)
        rings = sample_class_rings(labels, (4, 12, 25), 80, seed=16)
        pair_keys, counts = overlap_counts_from_rings(rings)
        got = dict(zip(pair_keys.tolist(), counts.tolist()))
        assert got == self._brute_force(rings)

    def test_binomial_rings_with_empty_rows(self):
        rings = sample_binomial_rings(40, 0.02, 120, seed=17)
        assert any(r.size == 0 for r in rings)  # raggedness includes empties
        pair_keys, counts = overlap_counts_from_rings(rings)
        got = dict(zip(pair_keys.tolist(), counts.tolist()))
        assert got == self._brute_force(rings)


class TestIncidence:
    def test_uniform_rings_incidence(self):
        rings = sample_uniform_rings(10, 4, 20, seed=1)
        inc = rings_to_incidence(rings, 20)
        assert inc.shape == (10, 20)
        assert (inc.sum(axis=1) == 4).all()

    def test_ragged_rings_incidence(self):
        rings = [np.array([0, 3]), np.array([], dtype=np.int64), np.array([1])]
        inc = rings_to_incidence(rings, 5)
        assert inc.sum() == 3
        assert inc[0, 3] == 1 and inc[2, 1] == 1

    def test_out_of_pool_raises(self):
        with pytest.raises(ValueError):
            rings_to_incidence([np.array([7])], 5)
