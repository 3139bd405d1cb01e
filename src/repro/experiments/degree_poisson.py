"""Lemma 9 validation: fixed-degree node counts are asymptotically Poisson.

For each degree ``h`` the experiment samples the count ``N_h`` of
degree-``h`` nodes across many deployments near the critical scaling
and compares:

* the empirical mean of ``N_h`` against the paper's Poissonized mean
  ``λ_{n,h}`` and the exact binomial mean (their gap is the
  Poissonization error, which shrinks with ``n``);
* the empirical *distribution* of ``N_h`` against ``Poisson(λ_{n,h})``
  via total-variation distance.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.degree_distribution import lambda_nh, lambda_nh_exact
from repro.core.scaling import channel_prob_for_alpha
from repro.params import QCompositeParams
from repro.probability.poisson import poisson_total_variation
from repro.simulation.engine import trials_from_env
from repro.simulation.estimators import BernoulliEstimate
from repro.simulation.results import CurvePoint, ExperimentResult
from repro.study import MetricSpec, Scenario, Study
from repro.utils.tables import format_table

__all__ = ["build_degree_poisson_study", "run_degree_poisson", "render_degree_poisson"]


def build_degree_poisson_study(
    trials: Optional[int] = None,
    degrees: Sequence[int] = (0, 1, 2),
    alpha: float = 0.0,
    num_nodes: int = 1000,
    key_ring_size: int = 60,
    pool_size: int = 10000,
    q: int = 2,
    seed: int = 20170609,
) -> Study:
    """One scenario; every degree ``h`` is one metric of one deployment.

    All ``N_h`` counts come from a single ``np.bincount`` per sampled
    world.
    """
    trials = trials if trials is not None else trials_from_env(120, full=600)
    p = channel_prob_for_alpha(num_nodes, key_ring_size, pool_size, q, alpha, k=1)
    return Study(
        (
            Scenario(
                name="degree_poisson",
                num_nodes=num_nodes,
                pool_size=pool_size,
                ring_sizes=(key_ring_size,),
                curves=((q, p),),
                metrics=tuple(MetricSpec("degree_count", h=h) for h in degrees),
                trials=trials,
                seed=seed,
            ),
        )
    )


def run_degree_poisson(
    trials: Optional[int] = None,
    degrees: Sequence[int] = (0, 1, 2),
    alpha: float = 0.0,
    num_nodes: int = 1000,
    key_ring_size: int = 60,
    pool_size: int = 10000,
    q: int = 2,
    seed: int = 20170609,
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Sample degree-``h`` counts at the critical scaling (α = 0 default)."""
    trials = trials if trials is not None else trials_from_env(120, full=600)
    p = channel_prob_for_alpha(num_nodes, key_ring_size, pool_size, q, alpha, k=1)
    params = QCompositeParams(
        num_nodes=num_nodes,
        key_ring_size=key_ring_size,
        pool_size=pool_size,
        overlap=q,
        channel_prob=p,
    )
    t = params.edge_probability()
    study = build_degree_poisson_study(
        trials, degrees, alpha, num_nodes, key_ring_size, pool_size, q, seed
    )
    scenario_result = study.run(workers=workers)["degree_poisson"]

    points: List[CurvePoint] = []
    for h in degrees:
        counts = scenario_result.series(
            f"degree_count[h={h}]", (q, p), key_ring_size
        ).astype(np.int64)
        lam = lambda_nh(num_nodes, t, h)
        lam_exact = lambda_nh_exact(num_nodes, t, h)
        histogram = np.bincount(counts)
        tv = poisson_total_variation(histogram, lam)
        points.append(
            CurvePoint(
                point={
                    "h": h,
                    "empirical_mean": float(counts.mean()),
                    "empirical_var": float(counts.var(ddof=1)) if trials > 1 else 0.0,
                    "lambda_poissonized": lam,
                    "lambda_exact": lam_exact,
                    "tv_distance": tv,
                },
                # Estimate slot: fraction of deployments with N_h = 0,
                # comparable to the Poisson prediction e^{-λ}.
                estimate=BernoulliEstimate.from_counts(
                    int((counts == 0).sum()), trials
                ),
                prediction=float(np.exp(-lam)),
            )
        )
    return ExperimentResult(
        name="degree_poisson",
        config={
            "trials": trials,
            "degrees": list(degrees),
            "alpha": alpha,
            "num_nodes": num_nodes,
            "key_ring_size": key_ring_size,
            "pool_size": pool_size,
            "q": q,
            "channel_prob": p,
            "seed": seed,
        },
        points=points,
    )


def render_degree_poisson(result: ExperimentResult) -> str:
    rows = []
    for pt in result.points:
        rows.append(
            [
                int(pt.point["h"]),
                pt.point["empirical_mean"],
                pt.point["lambda_poissonized"],
                pt.point["lambda_exact"],
                pt.point["empirical_var"],
                pt.point["tv_distance"],
                pt.estimate.estimate,
                pt.prediction,
            ]
        )
    return format_table(
        [
            "h",
            "mean N_h",
            "λ (paper)",
            "λ (exact)",
            "var N_h",
            "TV vs Poisson",
            "P[N_h=0] emp",
            "e^{-λ}",
        ],
        rows,
        title=(
            "Lemma 9: Poisson law for degree counts "
            f"(n={result.config['num_nodes']}, K={result.config['key_ring_size']}, "
            f"q={result.config['q']}, p={result.config['channel_prob']:.4f}, "
            f"trials={result.config['trials']})"
        ),
    )
