"""Tests for the uniform q-intersection graph generator.

The strongest checks: the inverted-index overlap kernel must give the
same edge sets as the dense Gram matrix of :mod:`tests.oracle` and the
same counts as brute-force pairwise intersections on adversarial ragged
incidences, at every ``min_count`` threshold, and the realized edge
frequency must match the exact hypergeometric ``s(K, P, q)``.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.exceptions import ParameterError
from repro.kernels import reference
from repro.keygraphs.rings import sample_binomial_rings, sample_uniform_rings
from repro.keygraphs.uniform_graph import (
    edges_from_rings,
    overlap_counts_from_rings,
    uniform_intersection_edges,
)
from repro.probability.hypergeometric import overlap_survival
from tests.oracle import edges_dense


def _edge_set(arr: np.ndarray) -> set:
    return {tuple(map(int, row)) for row in arr}


class TestBackendsAgree:
    """The inverted-index edges equal the oracle's dense Gram edges."""

    def test_uniform_rings_many_seeds(self):
        for seed in range(15):
            rings = sample_uniform_rings(40, 12, 120, seed=seed)
            for q in (1, 2, 3):
                inv = edges_from_rings(rings, q)
                dense = edges_dense(rings, q)
                assert _edge_set(inv) == _edge_set(dense), (seed, q)

    def test_ragged_rings(self):
        rings = sample_binomial_rings(30, 0.1, 100, seed=3)
        for q in (1, 2):
            inv = edges_from_rings(rings, q)
            dense = edges_dense(rings, q)
            assert _edge_set(inv) == _edge_set(dense)


class TestOverlapCounts:
    def test_counts_match_bruteforce(self):
        rings = sample_uniform_rings(25, 8, 60, seed=7)
        pair_keys, counts = overlap_counts_from_rings(rings)
        lookup = dict(zip(pair_keys.tolist(), counts.tolist()))
        n = rings.shape[0]
        for u in range(n):
            for v in range(u + 1, n):
                overlap = np.intersect1d(rings[u], rings[v]).size
                got = lookup.get(u * n + v, 0)
                assert got == overlap, (u, v)

    def test_empty_rings(self):
        keys, counts = overlap_counts_from_rings(
            [np.empty(0, dtype=np.int64) for _ in range(4)]
        )
        assert keys.size == 0 and counts.size == 0

    def test_no_nodes_raises(self):
        with pytest.raises(ParameterError):
            overlap_counts_from_rings([])

    def test_negative_key_id_raises(self):
        with pytest.raises(ParameterError, match="non-negative"):
            overlap_counts_from_rings([np.array([0, -1]), np.array([2])])
        with pytest.raises(ParameterError, match="non-negative"):
            overlap_counts_from_rings(np.array([[0, 1], [-3, 1]]))

    def test_min_count_threshold_matches_post_filter(self):
        rings = sample_uniform_rings(40, 12, 120, seed=4)
        pair_keys, counts = overlap_counts_from_rings(rings)
        for q in (1, 2, 3, 5):
            keys_q, counts_q = overlap_counts_from_rings(rings, q)
            keep = counts >= q
            assert np.array_equal(keys_q, pair_keys[keep]), q
            assert np.array_equal(counts_q, counts[keep]), q


_RINGS = [np.array([0, 1, 2]), np.array([1, 2, 3])]


class TestMinCountBoundary:
    """``min_count`` is a count: anything but an int >= 1 is refused."""

    def test_zero_raises(self):
        with pytest.raises(ParameterError, match="min_count"):
            overlap_counts_from_rings(_RINGS, 0)

    def test_negative_raises(self):
        with pytest.raises(ParameterError, match="min_count"):
            overlap_counts_from_rings(_RINGS, -2)

    def test_bool_raises(self):
        with pytest.raises(ParameterError, match="min_count"):
            overlap_counts_from_rings(_RINGS, True)

    def test_non_int_raises(self):
        with pytest.raises(ParameterError, match="min_count"):
            overlap_counts_from_rings(_RINGS, 2.0)


#: Thresholds every kernel check runs at (5 exceeds most counts).
MIN_COUNTS = (1, 2, 3, 5)


def _check_kernel(rings: List[List[int]]) -> None:
    """``reference.overlap_counts`` equals brute-force pairwise counts.

    At every threshold in :data:`MIN_COUNTS`, the kernel must emit
    exactly the pairs sharing at least that many keys, with their
    counts, and nothing below the threshold.
    """
    n = len(rings)
    node_ids = np.array([i for i, r in enumerate(rings) for _ in r], dtype=np.int64)
    key_ids = np.array([k for r in rings for k in r], dtype=np.int64)
    shared_counts: Dict[int, int] = {}
    for u in range(n):
        for v in range(u + 1, n):
            shared = np.intersect1d(rings[u], rings[v]).size
            if shared:
                shared_counts[u * n + v] = shared
    for min_count in MIN_COUNTS:
        pair_keys, counts = reference.overlap_counts(
            node_ids, key_ids, n, min_count
        )
        assert pair_keys.dtype == np.int64 and counts.dtype == np.int64
        assert (np.diff(pair_keys) > 0).all()
        assert (counts >= min_count).all(), min_count
        expect = {
            code: shared
            for code, shared in shared_counts.items()
            if shared >= min_count
        }
        assert dict(zip(pair_keys.tolist(), counts.tolist())) == expect, min_count


# Offsets of 2**31 push ``(max_key + 1) * n`` past int32, so the kernel
# must sort on int64 — a width no benchmark or golden fixture reaches.
ragged_incidences = st.tuples(
    st.lists(st.sets(st.integers(0, 30), max_size=8), min_size=1, max_size=12),
    st.sampled_from([0, 2**31]),
).map(lambda t: [sorted(k + t[1] for k in ring) for ring in t[0]])


class TestOverlapKernel:
    @given(ragged_incidences)
    @settings(max_examples=200, deadline=None)
    def test_matches_pairwise_intersections(self, rings):
        assume(any(rings))  # the kernel contract takes a non-empty incidence
        _check_kernel(rings)

    def test_no_key_co_held_gives_empty_int64(self):
        _check_kernel([[0, 1], [2], [3, 4, 5]])

    def test_one_key_held_by_every_node(self):
        _check_kernel([[7, 10 + i] for i in range(9)])

    def test_int64_width_for_large_key_ids(self):
        base = 2**31 // 3
        rings = [[base + 1, base + 2], [base + 2, base + 5], [base + 1, base + 2, base + 5]]
        assert (base + 5 + 1) * len(rings) >= 2**31
        _check_kernel(rings)

    def test_int64_width_at_min_count_two(self):
        # The 2**31 key offset of the property test: nodes 0 and 2 share
        # three keys and nodes 1 and 2 two, nodes 0 and 1 one.
        base = 2**31
        rings = [[base, base + 1, base + 2], [base + 2, base + 7], [base, base + 1, base + 2, base + 7]]
        node_ids = np.array([i for i, r in enumerate(rings) for _ in r], dtype=np.int64)
        key_ids = np.array([k for r in rings for k in r], dtype=np.int64)
        pair_keys, counts = reference.overlap_counts(node_ids, key_ids, 3, 2)
        assert pair_keys.tolist() == [0 * 3 + 2, 1 * 3 + 2]
        assert counts.tolist() == [3, 2]
        assert pair_keys.dtype == np.int64 and counts.dtype == np.int64
        _check_kernel(rings)

    def test_min_count_above_every_count_is_empty(self):
        # Every pair shares at most two keys, over five pair events.
        rings = [[0, 1, 2], [1, 2, 3], [2, 3, 4]]
        node_ids = np.array([i for i, r in enumerate(rings) for _ in r], dtype=np.int64)
        key_ids = np.array([k for r in rings for k in r], dtype=np.int64)
        assert reference.overlap_counts(node_ids, key_ids, 3, 2)[0].size == 2
        pair_keys, counts = reference.overlap_counts(node_ids, key_ids, 3, 3)
        assert pair_keys.size == 0 and counts.size == 0
        assert pair_keys.dtype == np.int64 and counts.dtype == np.int64

    def test_min_count_above_the_pair_event_count_is_empty(self):
        # One pair event in all; a threshold past it leaves nothing.
        node_ids = np.array([0, 1, 1], dtype=np.int64)
        key_ids = np.array([4, 4, 9], dtype=np.int64)
        for min_count in (2, 5):
            pair_keys, counts = reference.overlap_counts(
                node_ids, key_ids, 2, min_count
            )
            assert pair_keys.size == 0 and counts.size == 0
            assert pair_keys.dtype == np.int64 and counts.dtype == np.int64


class TestEdgeSemantics:
    def test_q_monotone_nesting(self):
        rings = sample_uniform_rings(60, 15, 150, seed=9)
        e1 = _edge_set(edges_from_rings(rings, 1))
        e2 = _edge_set(edges_from_rings(rings, 2))
        e3 = _edge_set(edges_from_rings(rings, 3))
        assert e3 <= e2 <= e1
        assert len(e1) > len(e3)  # strictly richer at this density

    def test_identical_rings_always_adjacent(self):
        rings = np.tile(np.arange(5, dtype=np.int64), (4, 1))
        edges = edges_from_rings(rings, 5)
        assert len(_edge_set(edges)) == 6  # complete graph on 4 nodes

    def test_disjoint_rings_no_edges(self):
        rings = np.arange(12, dtype=np.int64).reshape(4, 3)  # disjoint triples
        assert edges_from_rings(rings, 1).shape == (0, 2)

    def test_canonical_sorted_output(self):
        rings = sample_uniform_rings(30, 10, 80, seed=11)
        edges = edges_from_rings(rings, 1)
        assert (edges[:, 0] < edges[:, 1]).all()
        keys = edges[:, 0] * 30 + edges[:, 1]
        assert (np.diff(keys) > 0).all()  # sorted, no duplicates


class TestEdgeProbability:
    def test_matches_hypergeometric(self):
        # Realized edge density over many graphs ≈ s(K, P, q).
        n, K, P, q = 60, 10, 200, 2
        total_edges = 0
        reps = 60
        for seed in range(reps):
            total_edges += uniform_intersection_edges(n, K, P, q, seed=seed).shape[0]
        pairs = n * (n - 1) / 2
        emp = total_edges / (pairs * reps)
        s = overlap_survival(K, P, q)
        sd = np.sqrt(s * (1 - s) / (pairs * reps))  # ignores pair dependence
        assert abs(emp - s) < 6 * sd + 0.002
