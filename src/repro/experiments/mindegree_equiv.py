"""Lemma 8 validation: min-degree law and its equivalence to k-connectivity.

Two claims are checked on the *same* Monte Carlo deployments:

1. ``P[min degree >= k]`` follows the limit law ``exp(-e^{-α}/(k-1)!)``
   (Lemma 8) — the upper-bound half of Theorem 1's proof;
2. the events ``{min degree >= k}`` and ``{k-connected}`` coincide with
   probability → 1 (their limits agree, so the symmetric difference
   must vanish) — measured directly as a per-deployment agreement rate.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.mindegree import min_degree_probability_poisson
from repro.core.scaling import channel_prob_for_alpha
from repro.params import QCompositeParams
from repro.probability.limits import limit_probability
from repro.simulation.engine import trials_from_env
from repro.simulation.results import CurvePoint, ExperimentResult
from repro.study import MetricSpec, Scenario, Study
from repro.utils.tables import format_table

__all__ = ["build_mindegree_study", "run_mindegree_equiv", "render_mindegree_equiv"]


def build_mindegree_study(
    trials: Optional[int] = None,
    ks: Sequence[int] = (1, 2, 3),
    alphas: Sequence[float] = (-1.0, 0.0, 1.5),
    num_nodes: int = 300,
    key_ring_size: int = 80,
    pool_size: int = 10000,
    q: int = 2,
    seed: int = 20170608,
) -> Study:
    """One scenario per ``k`` with both Lemma 8 metrics per curve.

    All scenarios share the deployment family, so min-degree and
    k-connectivity are measured on the *same* sampled worlds across the
    whole ``(k, α)`` grid — the agreement rate is a per-deployment
    comparison, and the grid pays for ring sampling once.
    """
    trials = trials if trials is not None else trials_from_env(60, full=300)
    scenarios = []
    for k in ks:
        curves = tuple(
            (q, channel_prob_for_alpha(num_nodes, key_ring_size, pool_size, q, alpha, k))
            for alpha in alphas
        )
        scenarios.append(
            Scenario(
                name=f"mindegree_k{k}",
                num_nodes=num_nodes,
                pool_size=pool_size,
                ring_sizes=(key_ring_size,),
                curves=curves,
                metrics=(
                    MetricSpec("min_degree", k=k),
                    MetricSpec("k_connectivity", k=k),
                ),
                trials=trials,
                seed=seed,
            )
        )
    return Study(tuple(scenarios))


def run_mindegree_equiv(
    trials: Optional[int] = None,
    ks: Sequence[int] = (1, 2, 3),
    alphas: Sequence[float] = (-1.0, 0.0, 1.5),
    num_nodes: int = 300,
    key_ring_size: int = 80,
    pool_size: int = 10000,
    q: int = 2,
    seed: int = 20170608,
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Joint min-degree / k-connectivity sweep over (k, α).

    ``n = 300`` keeps the exact ``k = 3`` decision (bootstrap-closure scan)
    cheap enough for hundreds of trials.
    """
    trials = trials if trials is not None else trials_from_env(60, full=300)
    study = build_mindegree_study(
        trials, ks, alphas, num_nodes, key_ring_size, pool_size, q, seed
    )
    study_result = study.run(workers=workers)
    points: List[CurvePoint] = []
    for k in ks:
        scenario_result = study_result[f"mindegree_k{k}"]
        for alpha in alphas:
            p = channel_prob_for_alpha(
                num_nodes, key_ring_size, pool_size, q, alpha, k
            )
            params = QCompositeParams(
                num_nodes=num_nodes,
                key_ring_size=key_ring_size,
                pool_size=pool_size,
                overlap=q,
                channel_prob=p,
            )
            deg_est = scenario_result.bernoulli(
                f"min_degree[k={k}]", (q, p), key_ring_size
            )
            conn_est = scenario_result.bernoulli(
                f"k_connectivity[k={k}]", (q, p), key_ring_size
            )
            agreement = scenario_result.agreement(
                f"min_degree[k={k}]", f"k_connectivity[k={k}]", (q, p), key_ring_size
            )
            # Primary estimate slot: the min-degree probability (Lemma 8's
            # statistic); connectivity and agreement ride in the point dict.
            points.append(
                CurvePoint(
                    point={
                        "k": k,
                        "alpha": alpha,
                        "p": p,
                        "kconn_estimate": conn_est.estimate,
                        "kconn_ci_low": conn_est.ci_low,
                        "kconn_ci_high": conn_est.ci_high,
                        "agreement": agreement,
                        "poisson_refined": min_degree_probability_poisson(params, k),
                    },
                    estimate=deg_est,
                    prediction=limit_probability(alpha, k),
                )
            )
    return ExperimentResult(
        name="mindegree_equiv",
        config={
            "trials": trials,
            "ks": list(ks),
            "alphas": list(alphas),
            "num_nodes": num_nodes,
            "key_ring_size": key_ring_size,
            "pool_size": pool_size,
            "q": q,
            "seed": seed,
        },
        points=points,
    )


def render_mindegree_equiv(result: ExperimentResult) -> str:
    rows = []
    for pt in result.points:
        rows.append(
            [
                int(pt.point["k"]),
                pt.point["alpha"],
                pt.estimate.estimate,
                pt.point["kconn_estimate"],
                pt.point["agreement"],
                pt.prediction,
                pt.point["poisson_refined"],
            ]
        )
    return format_table(
        [
            "k",
            "alpha",
            "P[min deg>=k]",
            "P[k-conn]",
            "agreement",
            "limit law",
            "Poisson refined",
        ],
        rows,
        title=(
            "Lemma 8: min-degree law and equivalence with k-connectivity "
            f"(n={result.config['num_nodes']}, K={result.config['key_ring_size']}, "
            f"q={result.config['q']}, trials={result.config['trials']})"
        ),
    )
