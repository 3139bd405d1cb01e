"""Common-random-numbers regression: worker-count invariance.

``theorem1``, ``mindegree``, and ``degree_poisson`` ride the shared-
deployment study path, so for one seed they must produce *bit-exact*
identical estimates regardless of worker count or trial-block layout —
the determinism contract the compiler inherits from ``SeedSequence(
seed, spawn_key=(ring_index, trial))`` addressing plus assign-only
block assembly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.degree_poisson import (
    build_degree_poisson_study,
    run_degree_poisson,
)
from repro.experiments.mindegree_equiv import run_mindegree_equiv
from repro.experiments.theorem1_check import run_theorem1_check
from tests.oracle import oracle_values

SMALL = dict(num_nodes=100, key_ring_size=40, pool_size=2000, workers=None)


def _estimates(result):
    return [
        (pt.estimate.successes, pt.estimate.trials, dict(pt.point))
        for pt in result.points
    ]


@pytest.mark.parametrize("workers_b", [2, 3])
class TestWorkerInvariance:
    def test_theorem1(self, workers_b):
        kwargs = dict(trials=6, alphas=(0.0, 2.0), ks=(1, 2), **SMALL)
        kwargs["workers"] = 1
        a = run_theorem1_check(**kwargs)
        kwargs["workers"] = workers_b
        b = run_theorem1_check(**kwargs)
        assert _estimates(a) == _estimates(b)

    def test_mindegree(self, workers_b):
        kwargs = dict(trials=6, ks=(1, 2), alphas=(0.0,), **SMALL)
        kwargs["workers"] = 1
        a = run_mindegree_equiv(**kwargs)
        kwargs["workers"] = workers_b
        b = run_mindegree_equiv(**kwargs)
        assert _estimates(a) == _estimates(b)
        assert [pt.point["agreement"] for pt in a.points] == [
            pt.point["agreement"] for pt in b.points
        ]

    def test_degree_poisson(self, workers_b):
        kwargs = dict(trials=8, degrees=(0, 1), **SMALL)
        kwargs["workers"] = 1
        a = run_degree_poisson(**kwargs)
        kwargs["workers"] = workers_b
        b = run_degree_poisson(**kwargs)
        assert _estimates(a) == _estimates(b)
        assert [pt.point["empirical_mean"] for pt in a.points] == [
            pt.point["empirical_mean"] for pt in b.points
        ]


class TestSharedDeployments:
    def test_theorem1_ks_share_deployments(self):
        # k = 1 and k = 2 scenarios pin the same deployment family, so
        # the k = 2 indicator can never exceed the k = 1 indicator at
        # the same (alpha -> p) *only* per deployment; here we check the
        # provenance records exactly one group.
        from repro.experiments.theorem1_check import build_theorem1_study

        study = build_theorem1_study(
            trials=3, alphas=(0.0,), ks=(1, 2), num_nodes=100,
            key_ring_size=40, pool_size=2000,
        )
        plans = study.compile()
        assert len(plans) == 1
        assert len(plans[0].scenarios) == 2

    def test_mindegree_kconn_implies_mindeg_per_trial(self):
        # On shared deployments the implication holds sample-by-sample,
        # not just in the mean.
        from repro.experiments.mindegree_equiv import build_mindegree_study

        study = build_mindegree_study(
            trials=6, ks=(2,), alphas=(0.0,), num_nodes=100,
            key_ring_size=40, pool_size=2000,
        )
        result = study.run(workers=1)["mindegree_k2"]
        deg = result.series("min_degree[k=2]")
        conn = result.series("k_connectivity[k=2]")
        assert (conn <= deg).all()

    def test_degree_counts_sum_to_n_consistency(self):
        # All h-metrics come from one bincount per deployment: counts
        # for h = 0..2 can never sum above n.
        from repro.experiments.degree_poisson import build_degree_poisson_study

        study = build_degree_poisson_study(
            trials=5, degrees=(0, 1, 2), num_nodes=100,
            key_ring_size=40, pool_size=2000,
        )
        result = study.run(workers=1)["degree_poisson"]
        total = sum(
            result.series(f"degree_count[h={h}]") for h in (0, 1, 2)
        )
        assert (total <= 100).all()


class TestBackendCrossCheck:
    """The study path against the per-trial reference of ``tests.oracle``,
    which re-samples every point the way the retired legacy backend did."""

    def test_degree_poisson_study_vs_legacy_means_close(self):
        kwargs = dict(
            trials=40, degrees=(0,), num_nodes=150, key_ring_size=40,
            pool_size=2000,
        )
        study = run_degree_poisson(workers=1, **kwargs)
        (scenario,) = build_degree_poisson_study(**kwargs).scenarios
        lam = study.points[0].point["lambda_exact"]
        for mean in (
            study.points[0].point["empirical_mean"],
            oracle_values(scenario, seed=3).mean(),
        ):
            # Poisson-ish counts: means from 40 trials stay within a few
            # standard errors of the analytic mean.
            assert abs(mean - lam) < 4.0 * np.sqrt(lam / 40) + 1.0
