"""Validation of Theorem 1's asymptotically exact probability.

The sharpest test of Eq. (7) is to *fix the deviation* ``α`` and compare
the empirical k-connectivity probability against the closed form
``exp(-e^{-α}/(k-1)!)`` across a grid of α values spanning the
transition window.  For each α we keep ``(n, K, P, q)`` fixed and tune
the channel probability ``p`` so the exact edge probability lands on
Eq. (6) — the same knob the paper's proofs turn (Lemma 1).

Rendered output reports, per (k, α): empirical estimate, CI, the limit
law, and the finite-``n`` Poisson refinement of Lemma 8 (which should
fit even better, since at these ``n`` the limit's ``ln ln n`` terms
have not converged).
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

__all__ = ["build_theorem1_study", "run_theorem1_check", "render_theorem1_check"]

DEFAULT_ALPHAS = (-2.0, -1.0, 0.0, 1.0, 2.0, 4.0)


def build_theorem1_study(
    trials: Optional[int] = None,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    ks: Sequence[int] = (1, 2),
    num_nodes: int = 500,
    key_ring_size: int = 70,
    pool_size: int = 10000,
    q: int = 2,
    seed: int = 20170606,
    num_nodes_grid: Optional[Sequence[int]] = None,
) -> Study:
    """One scenario per ``k``; every α is one ``(q, p)`` curve.

    All scenarios pin the same deployment family ``(n, K, P, trials,
    seed)``, so the compiler samples each ``(K, trial)`` world once and
    every ``(k, α)`` point is a post-filter on it: common random
    numbers across the whole grid, and the ring sampling + overlap
    counting cost is paid once instead of ``len(ks) * len(alphas)``
    times.

    Passing ``num_nodes_grid`` turns the α sweep into a *growth* sweep:
    each per-``k`` scenario becomes a single size-grid declaration
    (``num_nodes`` is ignored) whose per-size curves re-solve the
    channel probability at every ``n``, so the convergence of the
    empirical probability toward the n-independent limit law is
    measured on one shared-deployment plan per ``k``.
    """
    trials = trials if trials is not None else trials_from_env(80, full=400)
    scenarios = []
    for k in ks:
        if num_nodes_grid is not None:
            curve_grid = tuple(
                tuple(
                    (q, channel_prob_for_alpha(n, key_ring_size, pool_size, q, alpha, k))
                    for alpha in alphas
                )
                for n in num_nodes_grid
            )
            scenarios.append(
                Scenario(
                    name=f"theorem1_k{k}",
                    num_nodes_grid=tuple(num_nodes_grid),
                    pool_size=pool_size,
                    ring_sizes=(key_ring_size,),
                    curves=curve_grid,
                    metrics=(MetricSpec("k_connectivity", k=k),),
                    trials=trials,
                    seed=seed,
                )
            )
            continue
        curves = tuple(
            (q, channel_prob_for_alpha(num_nodes, key_ring_size, pool_size, q, alpha, k))
            for alpha in alphas
        )
        scenarios.append(
            Scenario(
                name=f"theorem1_k{k}",
                num_nodes=num_nodes,
                pool_size=pool_size,
                ring_sizes=(key_ring_size,),
                curves=curves,
                metrics=(MetricSpec("k_connectivity", k=k),),
                trials=trials,
                seed=seed,
            )
        )
    return Study(tuple(scenarios))


def run_theorem1_check(
    trials: Optional[int] = None,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    ks: Sequence[int] = (1, 2),
    num_nodes: int = 500,
    key_ring_size: int = 70,
    pool_size: int = 10000,
    q: int = 2,
    seed: int = 20170606,
    workers: Optional[int] = None,
    num_nodes_grid: Optional[Sequence[int]] = None,
) -> ExperimentResult:
    """Sweep α at fixed (n, K, P, q), tuning p; estimate P[k-connected].

    Rides the shared-deployment study path (see
    :func:`build_theorem1_study`).  The default ``n = 500`` keeps the
    exact k-connectivity decision affordable for ``k = 2``; the bench
    scales ``n`` and trials via the usual environment knobs.
    ``num_nodes_grid`` swaps the single ``n`` for a growth sweep over
    the size axis (one sized declaration per ``k``); each point then
    also carries its ``n``.
    """
    trials = trials if trials is not None else trials_from_env(80, full=400)
    study = build_theorem1_study(
        trials, alphas, ks, num_nodes, key_ring_size, pool_size, q, seed,
        num_nodes_grid=num_nodes_grid,
    )
    study_result = study.run(workers=workers)
    sizes = (num_nodes,) if num_nodes_grid is None else tuple(num_nodes_grid)
    points: List[CurvePoint] = []
    for k in ks:
        for n in sizes:
            for alpha in alphas:
                p = channel_prob_for_alpha(
                    n, key_ring_size, pool_size, q, alpha, k
                )
                params = QCompositeParams(
                    num_nodes=n,
                    key_ring_size=key_ring_size,
                    pool_size=pool_size,
                    overlap=q,
                    channel_prob=p,
                )
                estimate = study_result[f"theorem1_k{k}"].bernoulli(
                    f"k_connectivity[k={k}]",
                    (q, p),
                    key_ring_size,
                    size=n if num_nodes_grid is not None else None,
                )
                point = {
                    "k": k,
                    "alpha": alpha,
                    "channel_prob": p,
                    "poisson_refined": min_degree_probability_poisson(params, k),
                }
                if num_nodes_grid is not None:
                    point["n"] = n
                points.append(
                    CurvePoint(
                        point=point,
                        estimate=estimate,
                        prediction=limit_probability(alpha, k),
                    )
                )
    return ExperimentResult(
        name="theorem1_check",
        config={
            "num_nodes": num_nodes,
            "num_nodes_grid": None if num_nodes_grid is None else list(num_nodes_grid),
            "key_ring_size": key_ring_size,
            "pool_size": pool_size,
            "q": q,
            "trials": trials,
            "alphas": list(alphas),
            "ks": list(ks),
            "seed": seed,
        },
        points=points,
    )


def render_theorem1_check(result: ExperimentResult) -> str:
    sized = result.points and "n" in result.points[0].point
    rows = []
    for pt in result.points:
        row = [
            int(pt.point["k"]),
            pt.point["alpha"],
            pt.point["channel_prob"],
            pt.estimate.estimate,
            pt.estimate.ci_low,
            pt.estimate.ci_high,
            pt.prediction,
            pt.point["poisson_refined"],
        ]
        if sized:
            row.insert(1, int(pt.point["n"]))
        rows.append(row)
    headers = [
        "k",
        "alpha",
        "p",
        "empirical",
        "ci_low",
        "ci_high",
        "limit law",
        "Poisson refined",
    ]
    if sized:
        headers.insert(1, "n")
        sizing = f"n grid={result.config['num_nodes_grid']}"
    else:
        sizing = f"n={result.config['num_nodes']}"
    return format_table(
        headers,
        rows,
        title=(
            "Theorem 1 exact-probability validation "
            f"({sizing}, K={result.config['key_ring_size']}, "
            f"P={result.config['pool_size']}, q={result.config['q']}, "
            f"trials={result.config['trials']})"
        ),
    )
