"""Tests for the disk (random geometric) channel model."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.channels.disk import DiskChannel
from repro.exceptions import ParameterError


def _brute_force_edges(positions: np.ndarray, chan: DiskChannel) -> set:
    n = positions.shape[0]
    out = set()
    for u in range(n):
        for v in range(u + 1, n):
            d = np.abs(positions[u] - positions[v])
            if chan.torus:
                d = np.minimum(d, 1.0 - d)
            if float(np.sqrt((d * d).sum())) <= chan.radius:
                out.add((u, v))
    return out


_WRAP_POSITIONS = np.array([(0.01, 0.5), (0.99, 0.5)])  # 0.02 apart on the torus


class TestDiskRealization:
    def test_positions_in_unit_square(self):
        mask, positions = DiskChannel(0.2).sample_mask(50, np.empty((0, 2)), seed=1)
        assert mask.shape == (0,)
        assert positions.shape == (50, 2)
        assert positions.min() >= 0.0 and positions.max() <= 1.0

    def test_edge_mask_matches_distances(self):
        chan = DiskChannel(0.3, torus=False)
        edges = np.array([(u, v) for u in range(30) for v in range(u + 1, 30)])
        mask, positions = chan.sample_mask(30, edges, seed=2)
        brute = _brute_force_edges(positions, chan)
        got = {tuple(map(int, e)) for e, m in zip(edges, mask) if m}
        assert got == brute

    def test_torus_wraps(self):
        chan = DiskChannel(0.2, torus=True)
        assert chan.within_range(_WRAP_POSITIONS, np.array([[0, 1]]))[0]

    def test_square_does_not_wrap(self):
        chan = DiskChannel(0.2, torus=False)
        assert not chan.within_range(_WRAP_POSITIONS, np.array([[0, 1]]))[0]

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            DiskChannel(0.0)
        with pytest.raises(ValueError):
            DiskChannel(2.0)

    def test_frozen_record(self):
        chan = DiskChannel(0.25, torus=False)
        assert chan == DiskChannel(0.25, torus=False)
        assert repr(chan) == "DiskChannel(radius=0.25, torus=False)"
        with pytest.raises(AttributeError):
            chan.radius = 0.1


_MALFORMED = {
    "radius-zero": lambda: DiskChannel(0.0),
    "radius-above-sqrt2": lambda: DiskChannel(2.0),
    "radius-nan": lambda: DiskChannel(float("nan")),
    "radius-str": lambda: DiskChannel("a"),
    "prob-zero": lambda: DiskChannel.for_edge_probability(0.0),
    "prob-one": lambda: DiskChannel.for_edge_probability(1.0),
    "prob-nan": lambda: DiskChannel.for_edge_probability(float("nan")),
    "prob-one-square": lambda: DiskChannel.for_edge_probability(1.0, torus=False),
    "prob-above-torus-form": lambda: DiskChannel.for_edge_probability(0.9),
    "torus-radius-above-half": lambda: DiskChannel(0.6).edge_probability(),
    "square-radius-above-one": lambda: DiskChannel(1.2, torus=False).edge_probability(),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_input_is_a_parameter_error(case):
    with pytest.raises(ParameterError):
        _MALFORMED[case]()


class TestEdgeProbability:
    def test_torus_closed_form(self):
        chan = DiskChannel(0.2, torus=True)
        assert chan.edge_probability() == pytest.approx(math.pi * 0.04)

    def test_torus_monte_carlo(self):
        chan = DiskChannel(0.15, torus=True)
        rng = np.random.default_rng(4)
        hits = 0
        reps = 40000
        a = rng.random((reps, 2))
        b = rng.random((reps, 2))
        d = np.abs(a - b)
        d = np.minimum(d, 1 - d)
        hits = (np.sqrt((d * d).sum(axis=1)) <= 0.15).sum()
        assert hits / reps == pytest.approx(chan.edge_probability(), rel=0.05)

    def test_square_monte_carlo(self):
        chan = DiskChannel(0.3, torus=False)
        rng = np.random.default_rng(5)
        reps = 40000
        a = rng.random((reps, 2))
        b = rng.random((reps, 2))
        d = np.sqrt(((a - b) ** 2).sum(axis=1))
        emp = (d <= 0.3).mean()
        assert emp == pytest.approx(chan.edge_probability(), rel=0.05)

    def test_for_edge_probability_roundtrip_torus(self):
        chan = DiskChannel.for_edge_probability(0.25, torus=True)
        assert chan.edge_probability() == pytest.approx(0.25, rel=1e-9)

    def test_for_edge_probability_roundtrip_square(self):
        chan = DiskChannel.for_edge_probability(0.25, torus=False)
        assert chan.edge_probability() == pytest.approx(0.25, rel=1e-6)

    def test_for_edge_probability_rejects_extremes(self):
        with pytest.raises(ValueError):
            DiskChannel.for_edge_probability(0.0)
        with pytest.raises(ValueError):
            DiskChannel.for_edge_probability(1.0)
