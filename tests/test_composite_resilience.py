"""Tests for composed channel constraints and resilient connectivity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channels.disk import DiskChannel
from repro.channels.onoff import OnOffChannel
from repro.exceptions import ParameterError
from repro.keygraphs.schemes import QCompositeScheme
from repro.utils.rng import spawn_generators
from repro.wsn.network import SecureWSN
from repro.wsn.resilience import evaluate_resilience


class TestCompositeChannel:
    """Reference [38]'s conjunction of channel constraints: masks AND-ed by hand."""

    def test_marginal_is_product(self):
        first, second = OnOffChannel(0.5), OnOffChannel(0.4)
        edges = np.zeros((40000, 2), dtype=np.int64)
        rng_a, rng_b = spawn_generators(3, 2)
        mask = (
            first.sample_mask(2, edges, rng_a)[0]
            & second.sample_mask(2, edges, rng_b)[0]
        )
        product = first.edge_probability() * second.edge_probability()
        assert product == pytest.approx(0.2)
        assert mask.mean() == pytest.approx(product, abs=0.01)

    def test_triple_intersection_in_wsn(self):
        # G_q ∩ G(n,p) ∩ RGG(n,r): reference [38]'s model, end to end.
        wsn = SecureWSN(40, QCompositeScheme(15, 200, 2), OnOffChannel(0.8), seed=6)
        secure = wsn.secure_edges()
        in_range, _ = DiskChannel(0.6, torus=True).sample_mask(40, secure, seed=7)
        triple = secure[in_range]
        # The extra constraint can only thin the secure links.
        assert 0 < triple.shape[0] <= secure.shape[0]
        assert {tuple(map(int, e)) for e in triple} <= {
            tuple(map(int, e)) for e in secure
        }


class TestResilience:
    @pytest.fixture
    def net(self) -> SecureWSN:
        return SecureWSN(
            60, QCompositeScheme(25, 300, 2), OnOffChannel(0.9), seed=11
        )

    def test_zero_captured_matches_plain_connectivity(self, net):
        out = evaluate_resilience(net, 0, seed=1)
        assert out.compromised_links == 0
        assert out.survivors == 60
        assert out.resiliently_connected == out.connected_ignoring_compromise
        assert out.connected_ignoring_compromise == net.is_connected()

    def test_failed_sensor_is_not_a_survivor(self, net):
        net.fail_nodes([5])
        assert net.is_connected()
        out = evaluate_resilience(net, 0, seed=1)
        assert out.survivors == net.live_count() == 59
        assert out.connected_ignoring_compromise == net.is_connected()
        assert out.resiliently_connected == net.is_connected()
        for seed in range(5):
            assert 5 not in evaluate_resilience(net, 20, seed=seed).captured_nodes
        assert evaluate_resilience(net, 20, seed=2).survivors == 39
        with pytest.raises(ParameterError):
            evaluate_resilience(net, 58)

    def test_all_alive_capture_stream_is_unchanged(self, net):
        for seed in range(5):
            expect = np.random.default_rng(seed).choice(60, size=15, replace=False)
            out = evaluate_resilience(net, 15, seed=seed)
            assert out.captured_nodes == sorted(int(x) for x in expect)

    def test_resilient_implies_plain(self, net):
        for seed in range(8):
            out = evaluate_resilience(net, 10, seed=seed)
            if out.resiliently_connected:
                assert out.connected_ignoring_compromise

    def test_survivor_count(self, net):
        out = evaluate_resilience(net, 15, seed=2)
        assert out.survivors == 45
        assert len(out.captured_nodes) == 15

    def test_compromise_fraction_bounds(self, net):
        out = evaluate_resilience(net, 20, seed=3)
        assert 0.0 <= out.compromise_fraction <= 1.0
        assert (
            out.surviving_links + out.compromised_links
            >= out.surviving_links
        )

    def test_nondestructive(self, net):
        before = net.live_count()
        evaluate_resilience(net, 12, seed=4)
        assert net.live_count() == before

    def test_capture_too_many_raises(self, net):
        with pytest.raises(ParameterError):
            evaluate_resilience(net, 59)

    def test_negative_captured_raises(self, net):
        with pytest.raises(ParameterError):
            evaluate_resilience(net, -1)

    def test_heavy_capture_degrades(self):
        # With a tiny pool, capturing most sensors compromises nearly
        # everything: resilient connectivity should fail far more often
        # than plain connectivity.
        resilient_hits = plain_hits = 0
        for seed in range(10):
            net = SecureWSN(
                40, QCompositeScheme(12, 60, 1), OnOffChannel(1.0), seed=seed
            )
            out = evaluate_resilience(net, 25, seed=seed)
            resilient_hits += out.resiliently_connected
            plain_hits += out.connected_ignoring_compromise
        assert resilient_hits <= plain_hits

    def test_experiment_registered(self):
        from repro.experiments.registry import get_experiment

        assert get_experiment("resilience").name == "resilience"

    def test_experiment_quick_run(self):
        from repro.experiments.resilience import render_resilience, run_resilience

        result = run_resilience(
            trials=3,
            qs=(1,),
            captured_grid=(0, 10),
            num_nodes=80,
            design_nodes=80,
            pool_size=1000,
            workers=1,
        )
        assert len(result.points) == 2
        zero_row = result.points[0]
        assert zero_row.point["mean_compromise_fraction"] == 0.0
        assert "resiliently conn." in render_resilience(result)