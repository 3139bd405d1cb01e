"""Tests for the on/off channel model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channels.onoff import OnOffChannel
from repro.exceptions import ParameterError
from repro.graphs.generators import pair_index_to_edge


def _mask(prob: float, num_edges: int, seed: int) -> np.ndarray:
    edges = np.zeros((num_edges, 2), dtype=np.int64)
    mask, positions = OnOffChannel(prob).sample_mask(2, edges, seed)
    assert positions is None
    return mask


class TestSampleOnOffMask:
    def test_shape_and_dtype(self):
        mask = _mask(0.5, 100, seed=1)
        assert mask.shape == (100,) and mask.dtype == bool

    def test_p_one_all_on(self):
        assert _mask(1.0, 50, seed=1).all()

    def test_rate_close_to_p(self):
        mask = _mask(0.3, 20000, seed=2)
        assert abs(mask.mean() - 0.3) < 0.02

    def test_empty(self):
        assert _mask(0.5, 0, seed=1).shape == (0,)


class TestOnOffRealization:
    def test_marginal_rate(self):
        pairs = np.array([(u, v) for u in range(300) for v in range(u + 1, u + 4) if v < 300])
        mask, _ = OnOffChannel(0.4).sample_mask(300, pairs, seed=5)
        assert abs(mask.mean() - 0.4) < 0.05

    def test_zero_prob_rejected(self):
        with pytest.raises(ParameterError):
            OnOffChannel(0.0)

    def test_empty_edges(self):
        mask, _ = OnOffChannel(0.5).sample_mask(5, np.empty((0, 2)), seed=7)
        assert mask.shape == (0,)


class TestOnOffChannel:
    def test_edge_probability(self):
        assert OnOffChannel(0.37).edge_probability() == 0.37

    def test_channel_graph_edge_count(self):
        # Masking every pair of 200 nodes samples the channel graph G(n, p).
        n = 200
        pairs = pair_index_to_edge(n, np.arange(n * (n - 1) // 2, dtype=np.int64))
        mask, _ = OnOffChannel(0.2).sample_mask(n, pairs, seed=2)
        expect = 0.2 * n * (n - 1) / 2
        assert abs(int(mask.sum()) - expect) < 5 * np.sqrt(expect)

    def test_invalid_probability(self):
        with pytest.raises(ParameterError):
            OnOffChannel(1.5)
        with pytest.raises(ParameterError):
            OnOffChannel(0.0)

    def test_frozen_record(self):
        chan = OnOffChannel(0.5)
        assert chan == OnOffChannel(0.5) and repr(chan) == "OnOffChannel(prob=0.5)"
        with pytest.raises(AttributeError):
            chan.prob = 0.9
