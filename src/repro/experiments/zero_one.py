"""The zero–one law (Eqs. 8b–8c): sharpening with ``n``.

Theorem 1's zero–one clauses say the k-connectivity probability tends
to 0 for ``α_n → -∞`` and 1 for ``α_n → +∞``.  At finite ``n`` the law
manifests as a transition window around α = 0 that *narrows as n
grows*: this experiment pins α at symmetric offsets ±α₀ and shows the
empirical probabilities marching toward 0 and 1 as ``n`` increases,
alongside the n-independent limit values ``exp(-e^{∓α₀})``.

Since the study layer grew a size axis, the whole growth sweep is
*one* declaration: a single :class:`~repro.study.scenario.Scenario`
with ``num_nodes_grid``, per-size ring sizes (the minimal ``K``
clearing the largest α at each ``n``), and per-size curves (the
α-offset channel probabilities solved per ``n``).  Deployment
``(size, ring, trial)`` cells are seeded by ``SeedSequence(seed,
spawn_key=(size_index, ring_index, trial))``, so estimates are
bit-identical for any worker count.

Adaptive allocation of the same declaration is
``run_adaptive_study(build_zero_one_study(...), policy)`` (see
:mod:`repro.study.adaptive`), or ``repro study
examples/adaptive_study.json --target-ci HW`` from the CLI: the
saturated tails stop within the first rounds while the cells near the
threshold keep extending, at the same per-trial seeds as a one-shot
run.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.scaling import channel_prob_for_alpha
from repro.probability.limits import limit_probability
from repro.simulation.engine import trials_from_env
from repro.simulation.results import CurvePoint, ExperimentResult
from repro.study import MetricSpec, Scenario, Study
from repro.utils.tables import format_table

__all__ = ["build_zero_one_study", "run_zero_one", "render_zero_one"]


def build_zero_one_study(
    trials: Optional[int] = None,
    num_nodes_grid: Sequence[int] = (200, 500, 1000, 2000),
    alpha_offsets: Sequence[float] = (-3.0, -1.5, 1.5, 3.0),
    pool_size: int = 10000,
    q: int = 2,
    seed: int = 20170607,
) -> Study:
    """One sized scenario: the whole growth sweep as a single declaration.

    The ring size is chosen per ``n`` as the minimal ``K`` whose key
    graph clears the *largest* α in the grid at ``p = 1`` (plus
    margin), so the channel-probability solve stays within (0, 1] at
    every point; the ``±α`` offsets become per-size curves.
    """
    from repro.core.design import minimal_key_ring_size

    trials = trials if trials is not None else trials_from_env(80, full=500)
    top_target = limit_probability(max(alpha_offsets) + 0.25, 1)
    ring_grid = []
    curve_grid = []
    for n in num_nodes_grid:
        ring = minimal_key_ring_size(
            n, pool_size, q, 1.0, k=1, target_probability=min(top_target, 0.999)
        )
        ring_grid.append((ring,))
        curve_grid.append(
            tuple(
                (q, channel_prob_for_alpha(n, ring, pool_size, q, alpha, k=1))
                for alpha in alpha_offsets
            )
        )
    return Study(
        (
            Scenario(
                name="zero_one",
                num_nodes_grid=tuple(num_nodes_grid),
                pool_size=pool_size,
                ring_sizes=tuple(ring_grid),
                curves=tuple(curve_grid),
                metrics=(MetricSpec("connectivity"),),
                trials=trials,
                seed=seed,
            ),
        )
    )


def run_zero_one(
    trials: Optional[int] = None,
    num_nodes_grid: Sequence[int] = (200, 500, 1000, 2000),
    alpha_offsets: Sequence[float] = (-3.0, -1.5, 1.5, 3.0),
    pool_size: int = 10000,
    q: int = 2,
    seed: int = 20170607,
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Estimate P[connected] at fixed ±α across growing ``n``.

    Runs the single size-grid scenario of :func:`build_zero_one_study`:
    every ``n`` is a size-axis entry of one shared-deployment plan, all
    α offsets at one ``n`` are curves of the same sampled worlds
    (nested channel thinning), and the ±α comparison therefore uses
    common random numbers — the transition sharpening is visible at
    far fewer trials than with independent sampling.
    """
    trials = trials if trials is not None else trials_from_env(80, full=500)
    study = build_zero_one_study(
        trials, num_nodes_grid, alpha_offsets, pool_size, q, seed
    )
    scenario = study.scenarios[0]
    scenario_result = study.run(workers=workers)["zero_one"]
    points: List[CurvePoint] = []
    for si, n in enumerate(num_nodes_grid):
        ring = scenario.ring_sizes_at(si)[0]
        for alpha, (_, p) in zip(alpha_offsets, scenario.curves_at(si)):
            points.append(
                CurvePoint(
                    point={"n": n, "alpha": alpha, "K": ring, "p": p},
                    estimate=scenario_result.bernoulli(
                        "connectivity", (q, p), ring, size=n
                    ),
                    prediction=limit_probability(alpha, 1),
                )
            )
    config = {
        "trials": trials,
        "num_nodes_grid": list(num_nodes_grid),
        "alpha_offsets": list(alpha_offsets),
        "pool_size": pool_size,
        "q": q,
        "seed": seed,
    }
    return ExperimentResult(name="zero_one", config=config, points=points)


def render_zero_one(result: ExperimentResult) -> str:
    rows = []
    for pt in result.points:
        rows.append(
            [
                int(pt.point["n"]),
                pt.point["alpha"],
                int(pt.point["K"]),
                pt.point["p"],
                pt.estimate.trials,
                pt.estimate.estimate,
                pt.prediction,
            ]
        )
    return format_table(
        ["n", "alpha", "K", "p", "trials", "empirical", "limit"],
        rows,
        title=(
            f"Zero-one law sharpening (q={result.config['q']}, "
            f"P={result.config['pool_size']}, trials={result.config['trials']})"
        ),
    )
