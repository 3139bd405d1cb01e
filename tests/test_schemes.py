"""Tests for scheme objects and the key pool."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.keygraphs.pool import KeyPool
from repro.keygraphs.schemes import (
    EschenauerGligorScheme,
    QCompositeScheme,
    shared_keys,
)


class TestKeyPool:
    def test_size(self):
        assert len(KeyPool(100)) == 100

    def test_contains(self):
        pool = KeyPool(10)
        assert pool.contains(0) and pool.contains(9)
        assert not pool.contains(10) and not pool.contains(-1)

    def test_key_material_deterministic(self):
        a = KeyPool(10, b"s").key_material(3)
        b = KeyPool(10, b"s").key_material(3)
        assert a == b and len(a) == 16

    def test_key_material_distinct(self):
        pool = KeyPool(10)
        assert pool.key_material(1) != pool.key_material(2)

    def test_different_secret_different_material(self):
        assert KeyPool(10, b"a").key_material(0) != KeyPool(10, b"b").key_material(0)

    def test_out_of_pool_raises(self):
        with pytest.raises(ParameterError):
            KeyPool(5).key_material(5)

    def test_bad_secret_type(self):
        with pytest.raises(TypeError):
            KeyPool(5, "not-bytes")  # type: ignore[arg-type]


class TestSharedKeys:
    def test_intersection(self):
        a = np.array([1, 3, 5, 7])
        b = np.array([3, 4, 7, 9])
        assert shared_keys(a, b).tolist() == [3, 7]

    def test_empty(self):
        assert shared_keys(np.array([1]), np.array([2])).size == 0


class TestQCompositeScheme:
    def test_assign_shapes(self):
        scheme = QCompositeScheme(10, 100, 2)
        rings = scheme.assign_rings(20, seed=1)
        assert rings.shape == (20, 10)

    def test_can_establish_respects_q(self):
        scheme = QCompositeScheme(4, 50, 2)
        a = np.array([1, 2, 3, 4])
        assert scheme.can_establish(a, np.array([3, 4, 10, 11]))  # 2 shared
        assert not scheme.can_establish(a, np.array([4, 10, 11, 12]))  # 1 shared

    def test_link_key_none_below_q(self):
        scheme = QCompositeScheme(3, 50, 2)
        assert scheme.link_key(np.array([1, 2, 3]), np.array([3, 4, 5])) is None

    def test_link_key_deterministic_and_symmetric(self):
        scheme = QCompositeScheme(4, 50, 2)
        a = np.array([1, 2, 3, 4])
        b = np.array([2, 3, 9, 10])
        k1 = scheme.link_key(a, b)
        k2 = scheme.link_key(b, a)
        assert k1 is not None and k1 == k2 and len(k1) == 16

    def test_link_key_depends_on_all_shared(self):
        # Adding one more shared key must change the link key.
        scheme = QCompositeScheme(4, 50, 2)
        a = np.array([1, 2, 3, 4])
        k_two_shared = scheme.link_key(a, np.array([1, 2, 30, 31]))
        k_three_shared = scheme.link_key(a, np.array([1, 2, 3, 31]))
        assert k_two_shared != k_three_shared

    def test_link_compromised_requires_all_keys(self):
        scheme = QCompositeScheme(4, 50, 2)
        a = np.array([1, 2, 3, 4])
        b = np.array([2, 3, 9, 10])  # shares {2, 3}
        assert scheme.link_compromised(a, b, [2, 3])
        assert not scheme.link_compromised(a, b, [2])
        assert not scheme.link_compromised(a, b, [])

    def test_link_compromised_false_without_link(self):
        scheme = QCompositeScheme(3, 50, 2)
        assert not scheme.link_compromised(
            np.array([1, 2, 3]), np.array([3, 8, 9]), [1, 2, 3, 8, 9]
        )

    def test_edge_probability_matches_hypergeometric(self):
        from repro.probability.hypergeometric import overlap_survival

        scheme = QCompositeScheme(12, 300, 2)
        assert scheme.edge_probability() == pytest.approx(
            overlap_survival(12, 300, 2)
        )

    def test_pool_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            QCompositeScheme(5, 100, 1, pool=KeyPool(50))

    def test_key_graph_edges_respect_rule(self):
        scheme = QCompositeScheme(10, 60, 3)
        rings = scheme.assign_rings(15, seed=5)
        edges = scheme.key_graph_edges(rings)
        for u, v in edges:
            assert shared_keys(rings[int(u)], rings[int(v)]).size >= 3


class TestEschenauerGligor:
    def test_is_q_one(self):
        scheme = EschenauerGligorScheme(8, 100)
        assert scheme.q == 1

    def test_single_shared_key_suffices(self):
        scheme = EschenauerGligorScheme(3, 50)
        assert scheme.can_establish(np.array([1, 2, 3]), np.array([3, 10, 20]))
