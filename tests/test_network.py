"""Tests for the SecureWSN façade — the Eq. (1) composition."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.channels.disk import DiskChannel
from repro.channels.onoff import OnOffChannel
from repro.exceptions import ParameterError
from repro.keygraphs.schemes import QCompositeScheme, shared_keys
from repro.params import QCompositeParams
from repro.utils.rng import spawn_generators
from repro.wsn.network import SecureWSN
from tests.oracle import to_graph


@pytest.fixture
def net() -> SecureWSN:
    return SecureWSN(
        30, QCompositeScheme(10, 100, 2), OnOffChannel(0.6), seed=77
    )


@pytest.fixture
def disk_net() -> SecureWSN:
    return SecureWSN(
        30, QCompositeScheme(10, 100, 1), DiskChannel(0.35), seed=78
    )


def _assert_can_communicate_matches_graph(net: SecureWSN) -> None:
    g = to_graph(net.num_nodes, net.secure_edges())
    assert g.number_of_edges() > 0
    for u in range(0, 10):
        for v in range(u + 1, 10):
            assert net.can_communicate(u, v) == g.has_edge(u, v)


class TestConstruction:
    def test_sensor_count(self, net):
        assert len(net.sensors) == 30
        assert net.live_count() == 30

    def test_rings_match_scheme(self, net):
        assert net.rings.shape == (30, 10)

    def test_needs_two_sensors(self):
        with pytest.raises(ParameterError):
            SecureWSN(1, QCompositeScheme(5, 50, 1))

    def test_default_channel_perfect(self):
        wsn = SecureWSN(10, QCompositeScheme(5, 30, 1), seed=1)
        # p = 1: secure edges equal key-graph edges.
        assert np.array_equal(wsn.secure_edges(), wsn.key_graph_edges)

    @pytest.mark.parametrize("channel", [object(), 0.5, "onoff"])
    def test_unknown_channel_rejected(self, channel):
        with pytest.raises(ParameterError, match="channel"):
            SecureWSN(10, QCompositeScheme(5, 30, 1), channel, seed=1)

    def test_from_params(self):
        params = QCompositeParams(
            num_nodes=20, key_ring_size=8, pool_size=80, overlap=2, channel_prob=0.5
        )
        wsn = SecureWSN.from_params(params, seed=3)
        assert wsn.num_nodes == 20
        assert wsn.scheme.q == 2

    def test_deterministic_given_seed(self):
        a = SecureWSN(15, QCompositeScheme(6, 60, 1), OnOffChannel(0.5), seed=9)
        b = SecureWSN(15, QCompositeScheme(6, 60, 1), OnOffChannel(0.5), seed=9)
        assert np.array_equal(a.secure_edges(), b.secure_edges())


class TestTopologySemantics:
    def test_secure_edges_subset_of_key_edges(self, net):
        key = {tuple(map(int, e)) for e in net.key_graph_edges}
        secure = {tuple(map(int, e)) for e in net.secure_edges()}
        assert secure <= key

    def test_key_edges_satisfy_overlap(self, net):
        for u, v in net.key_graph_edges:
            assert shared_keys(net.rings[int(u)], net.rings[int(v)]).size >= 2

    def test_secure_edge_iff_key_and_channel(self, net):
        # Every key edge with an on channel appears; off channels don't.
        mask = net.channel_mask
        expect = {
            tuple(map(int, e))
            for e, m in zip(net.key_graph_edges, mask)
            if m
        }
        assert {tuple(map(int, e)) for e in net.secure_edges()} == expect

    def test_can_communicate_matches_graph(self, net):
        _assert_can_communicate_matches_graph(net)

    def test_can_communicate_matches_graph_disk(self, disk_net):
        _assert_can_communicate_matches_graph(disk_net)

    def test_can_communicate_same_node_raises(self, net):
        with pytest.raises(ParameterError):
            net.can_communicate(3, 3)

    def test_link_key_present_iff_link(self, net):
        g = to_graph(net.num_nodes, net.secure_edges())
        checked_with = checked_without = False
        for u in range(10):
            for v in range(u + 1, 10):
                key = net.link_key(u, v)
                if g.has_edge(u, v):
                    assert key is not None and len(key) == 16
                    checked_with = True
                else:
                    assert key is None
                    checked_without = True
        assert checked_with and checked_without


_STREAM_CHANNELS = [
    OnOffChannel(0.4),
    DiskChannel(0.3, torus=True),
    DiskChannel(0.3, torus=False),
]


class TestChannelStream:
    """Rings and channels are pinned to the two spawned streams.

    The expected topology is rebuilt by hand from
    ``spawn_generators(seed, 2)``: the on/off kind draws one uniform per
    key-graph edge in row order, the disk kind draws ``(n, 2)`` positions
    and keeps the edges within range (minimum-image distance on the
    torus).
    """

    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    @pytest.mark.parametrize(
        "channel", _STREAM_CHANNELS, ids=["onoff", "disk-torus", "disk-square"]
    )
    def test_topology_rebuilds_from_spawned_streams(self, channel, seed):
        n = 40
        scheme = QCompositeScheme(8, 60, 1)
        net = SecureWSN(n, scheme, channel, seed=seed)
        ring_rng, channel_rng = spawn_generators(seed, 2)
        assert np.array_equal(net.rings, scheme.assign_rings(n, ring_rng))
        key = net.key_graph_edges
        if isinstance(channel, OnOffChannel):
            mask = channel_rng.random(key.shape[0]) < channel.prob
            assert all(s.position is None for s in net.sensors)
        else:
            positions = channel_rng.random((n, 2))
            delta = np.abs(positions[key[:, 0]] - positions[key[:, 1]])
            if channel.torus:
                delta = np.minimum(delta, 1.0 - delta)
            mask = np.sqrt((delta * delta).sum(axis=1)) <= channel.radius
            placed = np.array([s.position for s in net.sensors])
            assert np.array_equal(placed, positions)
        assert 0 < mask.sum() < key.shape[0]
        assert np.array_equal(net.secure_edges(), key[mask])


class TestFailures:
    def test_failed_node_drops_edges(self, net):
        before = np.bincount(net.secure_edges().ravel(), minlength=net.num_nodes)
        victim = int(np.argmax(before))
        net.fail_nodes([victim])
        edges = net.secure_edges()
        assert not ((edges[:, 0] == victim) | (edges[:, 1] == victim)).any()
        assert net.live_count() == 29

    def test_can_communicate_false_for_dead(self, net):
        net.fail_nodes([0])
        assert not net.can_communicate(0, 1)

    def test_restore_all(self, net):
        original = net.secure_edges().copy()
        net.fail_nodes([0, 1, 2])
        net.restore_all()
        assert np.array_equal(net.secure_edges(), original)
        assert net.live_count() == 30

    def test_connectivity_on_live_subgraph(self):
        # Fail everything except two linked sensors: connected again.
        wsn = SecureWSN(10, QCompositeScheme(9, 10, 1), seed=2)  # dense rings
        edges = wsn.secure_edges()
        assert edges.shape[0] > 0
        u, v = map(int, edges[0])
        wsn.fail_nodes([x for x in range(10) if x not in (u, v)])
        assert wsn.is_connected()

    def test_graph_cache_invalidation(self, net):
        before = net.secure_edges()
        assert (before == 5).any()
        net.fail_nodes([5])
        after = net.secure_edges()
        assert not (after == 5).any()
        assert after.shape[0] == before.shape[0] - int((before == 5).any(axis=1).sum())

    def test_bad_node_id_raises(self, net):
        with pytest.raises(ParameterError):
            net.fail_nodes([99])


class TestKConnectivity:
    def test_k_connectivity_consistent_with_graph(self, net):
        kappa = nx.node_connectivity(to_graph(net.num_nodes, net.secure_edges()))
        for k in (1, 2, 3):
            assert net.is_k_connected(k) == (kappa >= k)

    def test_live_subgraph_k_connectivity_matches_networkx(self):
        dense = SecureWSN(25, QCompositeScheme(20, 100, 2), OnOffChannel(0.8), seed=5)
        ng = to_graph(25, dense.secure_edges())
        dense.fail_nodes([0, 3, 7])
        kappa = nx.node_connectivity(ng.subgraph(set(range(25)) - {0, 3, 7}))
        assert kappa >= 2  # dense enough that k = 2 and 3 decide something
        for k in range(1, kappa + 2):
            assert dense.is_k_connected(k) == (kappa >= k), k

    def test_k_connectivity_after_failures(self, net):
        net.fail_nodes([0, 1])
        # Should evaluate on the 28-node live subgraph without crashing.
        result = net.is_k_connected(1)
        assert isinstance(result, bool)
        assert result == net.is_connected()
