"""Tests for per-deployment trial protocols and the scenario runner.

A trial protocol is the evaluation of one sampled deployment
(:func:`~repro.study.metrics.sample_deployment` plus
:class:`~repro.study.metrics.DeploymentEvaluator`); the runner is
:func:`~repro.study.run_scenario`, which draws ``trials`` deployments
per ``(K, trial)`` seed address.
"""

from __future__ import annotations

import numpy as np

from repro.study import MetricSpec, Scenario, run_scenario
from repro.study.metrics import DeploymentEvaluator, evaluate_scenario, sample_deployment

N, K, P, Q, CHANNEL = 80, 14, 600, 2, 0.7


def _trial(seed: int) -> DeploymentEvaluator:
    """One near-threshold deployment at small n: outcomes vary by seed."""
    return DeploymentEvaluator(sample_deployment(N, P, K, Q, np.random.default_rng(seed)))


def _scenario(*metrics: MetricSpec, trials: int, seed: int) -> Scenario:
    return Scenario(
        name="mid",
        num_nodes=N,
        pool_size=P,
        ring_sizes=(K,),
        curves=((Q, CHANNEL),),
        metrics=metrics,
        trials=trials,
        seed=seed,
    )


class TestTrialProtocols:
    def test_connectivity_trial_bool(self):
        value = _trial(1).evaluate("onoff", Q, CHANNEL, MetricSpec("connectivity"))
        assert value in (0.0, 1.0)

    def test_k1_trial_matches_connectivity_trial(self):
        for seed in range(5):
            a = _trial(seed).evaluate("onoff", Q, CHANNEL, MetricSpec("connectivity"))
            b = _trial(seed).evaluate(
                "onoff", Q, CHANNEL, MetricSpec("k_connectivity", k=1)
            )
            assert a == b

    def test_min_degree_trial_matches_joint(self):
        # The joint evaluation deduces cells from a shared ledger; the
        # min-degree value must equal the one evaluated on its own.
        joint = _scenario(
            MetricSpec("min_degree", k=2), MetricSpec("k_connectivity", k=2),
            trials=1, seed=0,
        )
        for seed in range(5):
            solo = _trial(seed).evaluate("onoff", Q, CHANNEL, MetricSpec("min_degree", k=2))
            values = evaluate_scenario(_trial(seed), joint)
            assert solo == values[0, 0]

    def test_degree_count_trial_nonnegative(self):
        v = _trial(5).evaluate("onoff", Q, CHANNEL, MetricSpec("degree_count", h=1))
        assert v == int(v) and v >= 0


class TestRunners:
    def test_connectivity_estimate_fields(self):
        result = run_scenario(_scenario(MetricSpec("connectivity"), trials=20, seed=1), workers=1)
        est = result.bernoulli("connectivity")
        assert est.trials == 20
        assert est.successes == round(est.estimate * 20)

    def test_k1_dispatches_to_connectivity(self):
        a = run_scenario(_scenario(MetricSpec("connectivity"), trials=15, seed=2), workers=1)
        b = run_scenario(
            _scenario(MetricSpec("k_connectivity", k=1), trials=15, seed=2), workers=1
        )
        assert np.array_equal(a.values, b.values)

    def test_parallel_equals_serial(self):
        scenario = _scenario(MetricSpec("connectivity"), trials=12, seed=3)
        a = run_scenario(scenario, workers=1)
        b = run_scenario(scenario, workers=4)
        assert np.array_equal(a.values, b.values)

    def test_min_degree_at_least_kconn(self):
        # P[min deg >= k] >= P[k-connected] on identical deployments.
        scenario = _scenario(
            MetricSpec("min_degree", k=2), MetricSpec("k_connectivity", k=2),
            trials=30, seed=4,
        )
        result = run_scenario(scenario, workers=1)
        deg = result.bernoulli("min_degree[k=2]")
        conn = result.bernoulli("k_connectivity[k=2]")
        assert deg.estimate >= conn.estimate
        agreement = result.agreement("min_degree[k=2]", "k_connectivity[k=2]")
        assert 0.0 <= agreement <= 1.0

    def test_degree_counts_array(self):
        result = run_scenario(
            _scenario(MetricSpec("degree_count", h=0), trials=25, seed=5), workers=1
        )
        counts = result.series("degree_count[h=0]")
        assert counts.shape == (25,)
        assert (counts >= 0).all()

    def test_min_degree_estimate(self):
        result = run_scenario(
            _scenario(MetricSpec("min_degree", k=1), trials=20, seed=6), workers=1
        )
        est = result.bernoulli("min_degree[k=1]")
        assert 0.0 <= est.estimate <= 1.0
