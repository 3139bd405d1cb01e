"""Heterogeneous zero–one law: the class-mix transition sharpening.

The Eletreby–Yağan generalization (arXiv:1604.00460, 1908.09826) keeps
Theorem 1's shape under node classes: with per-class weights ``μ_i``,
ring sizes ``K_i``, and channel matrix ``α_ij``, the *minimum* of the
per-class mean edge probabilities ``λ_i = Σ_j μ_j α_ij s(K_i,K_j,P,q)``
takes the critical scaling, and at deviation ``α`` the connectivity
probability converges to ``exp(-μ_min e^{-α})`` — the homogeneous
limit diluted by the weight of the bottleneck class.

This experiment pins ``α`` at symmetric offsets across growing ``n``
exactly like the homogeneous ``zero_one`` check: the whole growth
sweep is *one* class-mix :class:`~repro.study.scenario.Scenario` whose
curves carry the per-``n`` channel *scale* ``c`` (a curve's ``p``
multiplies the whole ``α_ij`` matrix, so all offsets at one ``n`` ride
the same sampled worlds via nested thinning).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.heterogeneous import (
    class_edge_probabilities,
    het_channel_scale_for_alpha,
    het_limit_probability,
)
from repro.simulation.engine import trials_from_env
from repro.simulation.results import CurvePoint, ExperimentResult
from repro.study import ClassMix, MetricSpec, Scenario, Study
from repro.utils.tables import format_table

__all__ = [
    "build_het_zero_one_study",
    "run_het_zero_one",
    "render_het_zero_one",
]

# Default two-class mix: an even split of lightly-keyed nodes with
# strong channels and heavily-keyed nodes with weak ones, so the
# bottleneck class is decided by the full λ computation rather than by
# any single parameter.
_MU = (0.5, 0.5)
_RING_SIZES = (30, 60)
_CHANNEL_PROBS = ((0.8, 0.5), (0.5, 0.3))


def build_het_zero_one_study(
    trials: Optional[int] = None,
    num_nodes_grid: Sequence[int] = (200, 500, 1000),
    alpha_offsets: Sequence[float] = (-3.0, -1.5, 1.5, 3.0),
    pool_size: int = 10000,
    ring_sizes: Sequence[int] = _RING_SIZES,
    mu: Sequence[float] = _MU,
    channel_probs: Sequence[Sequence[float]] = _CHANNEL_PROBS,
    q: int = 1,
    seed: int = 20190826,
) -> Study:
    """One class-mix scenario spanning the whole ``(n, α)`` grid.

    The per-class ring sizes are shared by every ``n``; the curves are
    per-size, each carrying the scalar channel scale that places the
    bottleneck class ``λ_min`` at deviation ``α`` for that ``n``.
    """
    trials = trials if trials is not None else trials_from_env(60, full=400)
    curve_grid = []
    for n in num_nodes_grid:
        curve_grid.append(
            tuple(
                (
                    q,
                    het_channel_scale_for_alpha(
                        n, ring_sizes, pool_size, q, mu, channel_probs, alpha, k=1
                    ),
                )
                for alpha in alpha_offsets
            )
        )
    return Study(
        (
            Scenario(
                name="het_zero_one",
                num_nodes_grid=tuple(num_nodes_grid),
                pool_size=pool_size,
                ring_sizes=(tuple(ring_sizes),),
                curves=tuple(curve_grid),
                metrics=(MetricSpec("connectivity"),),
                trials=trials,
                seed=seed,
                classes=ClassMix(
                    mu=tuple(mu),
                    channel_probs=tuple(tuple(row) for row in channel_probs),
                ),
            ),
        )
    )


def run_het_zero_one(
    trials: Optional[int] = None,
    num_nodes_grid: Sequence[int] = (200, 500, 1000),
    alpha_offsets: Sequence[float] = (-3.0, -1.5, 1.5, 3.0),
    pool_size: int = 10000,
    ring_sizes: Sequence[int] = _RING_SIZES,
    mu: Sequence[float] = _MU,
    channel_probs: Sequence[Sequence[float]] = _CHANNEL_PROBS,
    q: int = 1,
    seed: int = 20190826,
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Estimate P[connected] of the class mix at fixed ±α across ``n``.

    Runs the single class-mix scenario of
    :func:`build_het_zero_one_study` — every ``n`` is a size-axis
    entry, all α offsets at one ``n`` are curves of the same sampled
    worlds (one uniform per candidate edge thresholded at
    ``c · α_ij``), so the ±α comparison uses common random numbers.
    """
    trials = trials if trials is not None else trials_from_env(60, full=400)
    study = build_het_zero_one_study(
        trials,
        num_nodes_grid,
        alpha_offsets,
        pool_size,
        ring_sizes,
        mu,
        channel_probs,
        q,
        seed,
    )
    scenario = study.scenarios[0]
    scenario_result = study.run(workers=workers)["het_zero_one"]
    lambdas = class_edge_probabilities(ring_sizes, pool_size, q, mu, channel_probs)
    mu_min = float(mu[min(range(len(lambdas)), key=lambdas.__getitem__)])
    ring_entry = scenario.ring_sizes_at(0)[0]
    points: List[CurvePoint] = []
    for si, n in enumerate(num_nodes_grid):
        for alpha, (_, scale) in zip(alpha_offsets, scenario.curves_at(si)):
            points.append(
                CurvePoint(
                    point={"n": n, "alpha": alpha, "scale": scale},
                    estimate=scenario_result.bernoulli(
                        "connectivity", (q, scale), ring_entry, size=n
                    ),
                    prediction=het_limit_probability(alpha, mu_min, 1),
                )
            )
    return ExperimentResult(
        name="het_zero_one",
        config={
            "trials": trials,
            "num_nodes_grid": list(num_nodes_grid),
            "alpha_offsets": list(alpha_offsets),
            "pool_size": pool_size,
            "ring_sizes": list(ring_sizes),
            "mu": list(mu),
            "channel_probs": [list(row) for row in channel_probs],
            "lambdas": list(lambdas),
            "mu_min": mu_min,
            "q": q,
            "seed": seed,
        },
        points=points,
    )


def render_het_zero_one(result: ExperimentResult) -> str:
    rows = []
    for pt in result.points:
        rows.append(
            [
                int(pt.point["n"]),
                pt.point["alpha"],
                pt.point["scale"],
                pt.estimate.trials,
                pt.estimate.estimate,
                pt.prediction,
            ]
        )
    return format_table(
        ["n", "alpha", "scale", "trials", "empirical", "het limit"],
        rows,
        title=(
            "Heterogeneous zero-one law "
            f"(K={result.config['ring_sizes']}, mu={result.config['mu']}, "
            f"q={result.config['q']}, trials={result.config['trials']})"
        ),
    )
