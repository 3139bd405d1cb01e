"""The shared-deployment sweep: coupling, determinism, worker invariance.

Covers the properties the study compiler's exactness rests on:

1. the nested-thinning coupling invariant (smaller ``p`` / larger ``q``
   masks are subsets of larger ``p`` / smaller ``q`` masks within one
   deployment), checked on :func:`repro.study.metrics.sample_deployment`;
2. determinism: ``Study.run`` is bit-exact under a fixed seed and
   invariant to the worker count;
3. worker invariance: a corpus spanning a Figure-1-style grid, a
   sized growth grid and a class mix gives the same value tensors
   through ``Study.run`` serial and pooled, warm pool on and off.

A Figure 1 slice is also checked against independent per-trial
sampling (:mod:`tests.oracle`); every other sweep experiment is checked
against it in ``tests/test_oracle.py``.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.experiments.figure1 import build_figure1_study, run_figure1
from repro.experiments.zero_one import run_zero_one
from repro.graphs.generators import erdos_renyi_edges
from repro.graphs.unionfind import (
    connected_components_labels,
    count_components_pair_keys,
    is_connected_pair_keys,
)
from repro.simulation.estimators import wilson_interval
from repro.study import ClassMix, MetricSpec, Scenario, Study
from repro.study.metrics import DeploymentEvaluator, sample_deployment
from tests.oracle import oracle_values, to_graph
from tests.conftest import POOL_STARTS, prepare_pool

SIX_CURVES = ((2, 1.0), (2, 0.5), (2, 0.2), (3, 1.0), (3, 0.5), (3, 0.2))


def _subset(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether boolean mask *a* selects a subset of mask *b*."""
    return not bool((a & ~b).any())


def _curve_masks(num_nodes, pool_size, ring_size, curves, rng):
    """One shared deployment; the on/off mask of every curve."""
    dep = sample_deployment(
        num_nodes, pool_size, ring_size, min(q for q, _ in curves), rng
    )
    evaluator = DeploymentEvaluator(dep)
    return {(q, p): evaluator.curve_mask("onoff", q, p) for q, p in curves}


def _sweep(trials=5, **overrides):
    """A connectivity sweep scenario with six Figure-1 curves."""
    fields = dict(
        name="sweep",
        num_nodes=120,
        pool_size=2000,
        ring_sizes=(28, 34),
        curves=SIX_CURVES,
        metrics=(MetricSpec("connectivity"),),
        trials=trials,
        seed=2017,
    )
    fields.update(overrides)
    return Scenario(**fields)


class TestVectorizedKernel:
    def test_matches_bfs_on_random_er_graphs(self):
        rng = np.random.default_rng(42)
        for n in (2, 3, 7, 25, 120):
            for p in (0.0, 0.01, 0.05, 0.2, 0.8):
                edges = erdos_renyi_edges(n, p, rng)
                comps = nx.number_connected_components(to_graph(n, edges))
                labels = connected_components_labels(n, edges)
                assert np.unique(labels).size == comps
                keys = (
                    edges[:, 0] * n + edges[:, 1]
                    if edges.size
                    else np.empty(0, dtype=np.int64)
                )
                assert count_components_pair_keys(n, keys) == comps
                assert is_connected_pair_keys(n, keys) == (comps == 1)

    def test_label_is_component_minimum(self):
        # Two components {0,1,2} and {3,4}: labels collapse to minima.
        edges = np.array([[1, 2], [0, 2], [3, 4]])
        labels = connected_components_labels(5, edges)
        assert labels.tolist() == [0, 0, 0, 3, 3]

    def test_pair_keys_edge_cases(self):
        assert is_connected_pair_keys(1, np.empty(0, dtype=np.int64))
        assert not is_connected_pair_keys(2, np.empty(0, dtype=np.int64))
        assert is_connected_pair_keys(2, np.array([1]))  # key 0*2+1
        assert count_components_pair_keys(4, np.empty(0, dtype=np.int64)) == 4


class TestCouplingInvariant:
    def test_masks_nested_in_p_and_q(self):
        rng = np.random.default_rng(2017)
        for _ in range(5):
            by_curve = _curve_masks(200, 2000, 40, SIX_CURVES, rng)
            # p-nesting at fixed q (nested thinning of one uniform draw).
            for q in (2, 3):
                assert _subset(by_curve[(q, 0.2)], by_curve[(q, 0.5)])
                assert _subset(by_curve[(q, 0.5)], by_curve[(q, 1.0)])
            # q-nesting at fixed p (counts >= 3 implies counts >= 2).
            for p in (1.0, 0.5, 0.2):
                assert _subset(by_curve[(3, p)], by_curve[(2, p)])
            # p = 1 keeps every candidate with enough overlap.
            assert by_curve[(2, 1.0)].all()

    def test_channel_marginal_rate(self):
        # Thinning at p keeps ~p of the q-filtered candidates.
        rng = np.random.default_rng(5)
        by_curve = _curve_masks(300, 1000, 30, [(2, 1.0), (2, 0.5)], rng)
        full = int(by_curve[(2, 1.0)].sum())
        kept = int(by_curve[(2, 0.5)].sum())
        assert full > 500  # sanity: the point is non-degenerate
        assert abs(kept / full - 0.5) < 0.05

    def test_outcomes_monotone_across_curves(self):
        # Connectivity is monotone in the edge set, so within one
        # deployment outcome(p small) implies outcome(p large).
        values = Study((_sweep(trials=10, curves=((2, 1.0), (2, 0.5), (2, 0.2))),)).run(
            workers=1
        )["sweep"].values[..., 0]
        assert (values[..., 1] <= values[..., 0]).all()
        assert (values[..., 2] <= values[..., 1]).all()


class TestSweepDeterminism:
    def test_bit_exact_repeat_and_worker_invariance(self):
        study = Study((_sweep(trials=8, curves=((2, 1.0), (2, 0.5)), seed=99),))
        a = study.run(workers=1)["sweep"].values
        b = study.run(workers=1)["sweep"].values
        c = study.run(workers=2)["sweep"].values
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)
        assert a.shape == (2, 8, 2, 1)

    def test_estimates_shape_and_counts(self):
        scenario = _sweep(
            num_nodes=80, pool_size=1000, ring_sizes=(20,),
            curves=((2, 1.0), (3, 1.0)), seed=7,
        )
        result = Study((scenario,)).run(workers=1)["sweep"]
        for curve in scenario.curves:
            assert result.bernoulli("connectivity", curve, 20).trials == 5

    def test_invalid_specs_rejected(self):
        with pytest.raises(ParameterError):
            _sweep(ring_sizes=())
        with pytest.raises(ParameterError):
            _sweep(curves=())
        with pytest.raises(ParameterError):
            # q exceeds the ring size.
            _sweep(ring_sizes=(2,), curves=((3, 1.0),))


class TestBackendConsistency:
    """The study path against the per-trial reference of ``tests.oracle``.

    The oracle re-samples every ``(K, curve)`` cell on its own, the way
    the retired legacy per-point backend did.
    """

    FIGURE1 = dict(
        trials=6, ring_sizes=[28, 34], curves=[(2, 0.5)], num_nodes=120,
        pool_size=2000,
    )

    def test_legacy_backend_bit_exact(self):
        (scenario,) = build_figure1_study(**self.FIGURE1).scenarios
        a = oracle_values(scenario, seed=5)
        b = oracle_values(scenario, seed=5)
        assert np.array_equal(a, b)
        assert "backend" not in run_figure1(workers=1, **self.FIGURE1).config

    def test_sweep_statistically_consistent_with_legacy(self):
        # Same model, matched trial counts: every study CI must overlap
        # the per-trial reference CI at the same point (deterministic
        # under the fixed seeds; trial counts keep the CIs wide enough
        # that a correct implementation passes with large margin).
        common = dict(
            trials=120, ring_sizes=[26, 30], curves=[(2, 1.0), (2, 0.5)],
            num_nodes=150, pool_size=2000,
        )
        sweep = run_figure1(workers=1, **common)
        (scenario,) = build_figure1_study(**common).scenarios
        reference = oracle_values(scenario, seed=11)
        for ps in sweep.points:
            ri = scenario.ring_sizes.index(ps.point["K"])
            ci = scenario.curves.index((ps.point["q"], ps.point["p"]))
            cell = reference[ri, :, ci, 0]
            low, high = wilson_interval(int(cell.sum()), cell.size)
            assert ps.estimate.ci_low <= high
            assert low <= ps.estimate.ci_high

    def test_sweep_backend_bit_exact(self):
        kwargs = dict(
            trials=6, ring_sizes=[28, 34], curves=[(2, 0.5), (2, 1.0)],
            num_nodes=120, pool_size=2000, workers=1,
        )
        a = run_figure1(**kwargs)
        b = run_figure1(**kwargs)
        assert [p.estimate.successes for p in a.points] == [
            p.estimate.successes for p in b.points
        ]

    def test_point_layout_is_curve_major(self):
        result = run_figure1(
            trials=2, ring_sizes=[26, 32], curves=[(2, 1.0), (2, 0.5)],
            num_nodes=100, pool_size=1500, workers=1,
        )
        assert [p.point for p in result.points] == [
            {"q": 2, "p": 1.0, "K": 26},
            {"q": 2, "p": 1.0, "K": 32},
            {"q": 2, "p": 0.5, "K": 26},
            {"q": 2, "p": 0.5, "K": 32},
        ]

    def test_zero_one_runs_on_sweep_engine(self):
        result = run_zero_one(
            trials=3, num_nodes_grid=(100,), alpha_offsets=(-2.0, 2.0),
            pool_size=2000, workers=1,
        )
        assert len(result.points) == 2
        # Shared deployments + monotone thinning: the higher-alpha
        # (higher-p) point can never estimate below the lower one.
        low, high = result.points
        assert low.point["alpha"] < high.point["alpha"]
        assert low.estimate.successes <= high.estimate.successes


class TestCorpusWorkerInvariance:
    """One corpus, bit-identical serial and pooled.

    The corpus spans the plain Figure-1 grid, a sized growth grid and a
    class mix, and runs through ``Study.run`` end to end, with the warm
    pool on and off.
    """

    CORPUS = (
        _sweep(),
        _sweep(
            name="grown", num_nodes=None, num_nodes_grid=(60, 90),
            ring_sizes=(24, 30), curves=((2, 1.0), (2, 0.5)), seed=31,
        ),
        _sweep(
            name="mixed", num_nodes=80, ring_sizes=((20, 30),),
            curves=((1, 0.5), (1, 1.0)), seed=37,
            classes=ClassMix(mu=(0.5, 0.5), channel_probs=((0.8, 0.5), (0.5, 0.3))),
        ),
    )

    def _values(self, workers):
        result = Study(self.CORPUS).run(workers=workers)
        return [r.values for r in result.results]

    @pytest.mark.parametrize("pool_start", POOL_STARTS)
    def test_worker_invariant_pool_on_and_off(self, pool_start):
        prepare_pool(pool_start, 2)
        for got, want in zip(self._values(2), self._values(1)):
            assert np.array_equal(got, want), pool_start
