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

``backend="adaptive"`` rides :mod:`repro.study.adaptive`: the tails of
the law (cells already resolved at/near 0 or 1) stop after a loose
Wilson target, while transition-band cells keep extending in trial
blocks until they reach ``ci_target`` — the trial budget concentrates
exactly where the threshold is still being resolved, at the same
deterministic per-trial seeds as a one-shot run.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.scaling import channel_prob_for_alpha
from repro.exceptions import ParameterError
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
    backend: str = "study",
    ci_target: float = 0.02,
    max_trials: int = 4000,
    block_trials: Optional[int] = None,
    transition_band: Sequence[float] = (0.1, 0.9),
    tail_ci_target: float = 0.05,
) -> ExperimentResult:
    """Estimate P[connected] at fixed ±α across growing ``n``.

    The default ``"study"`` backend runs the single size-grid scenario
    of :func:`build_zero_one_study`: every ``n`` is a size-axis entry
    of one shared-deployment plan, all α offsets at one ``n`` are
    curves of the same sampled worlds (nested channel thinning), and
    the ±α comparison therefore uses common random numbers — the
    transition sharpening is visible at far fewer trials than with
    independent sampling.

    ``backend="adaptive"`` sharpens only the transition band: starting
    from *trials* as the first round, cells are extended in blocks
    until their Wilson half-width reaches ``ci_target`` — but cells
    whose running estimate sits outside ``transition_band`` (the
    saturated 0/1 tails, exactly where Theorem 1's claim is already
    decided) are held only to the looser ``tail_ci_target``.  Trials
    concentrate on the ``(n, α)`` points that still resolve the
    threshold, and the spend is reported in the result config
    (``config["adaptive"]``, see
    :func:`repro.study.adaptive.trial_allocation`).
    """
    if backend not in ("study", "adaptive"):
        raise ParameterError(
            f"unknown backend {backend!r}; use 'study' or 'adaptive'"
        )
    trials = trials if trials is not None else trials_from_env(80, full=500)
    study = build_zero_one_study(
        trials, num_nodes_grid, alpha_offsets, pool_size, q, seed
    )
    scenario = study.scenarios[0]
    adaptive_summary: Optional[dict] = None
    if backend == "study":
        scenario_result = study.run(workers=workers)["zero_one"]
    else:
        from repro.study.adaptive import AdaptivePolicy, run_adaptive_study

        band = tuple(float(b) for b in transition_band)
        if len(band) != 2:
            raise ParameterError(
                f"transition_band must be (low, high), got {transition_band!r}"
            )
        policy = AdaptivePolicy(
            ci_target=ci_target,
            max_trials=max_trials,
            block_trials=block_trials,
            indicator_band=band,
            tail_ci_target=tail_ci_target,
        )
        study_result = run_adaptive_study(study, policy, workers=workers)
        scenario_result = study_result["zero_one"]
        adaptive_summary = dict(study_result.provenance["adaptive"])  # type: ignore[index,arg-type]
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
        "backend": backend,
    }
    if adaptive_summary is not None:
        config["adaptive"] = adaptive_summary
    return ExperimentResult(
        name="zero_one",
        config=config,
        points=points,
    )


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
    backend = result.config.get("backend", "study")
    if backend == "adaptive":
        alloc = result.config.get("adaptive", {})
        trials_note = (
            f"adaptive: ci_target={alloc.get('policy', {}).get('ci_target')}, "
            f"spent={alloc.get('trials_spent')} cell-trials "
            f"({alloc.get('savings_vs_fixed')}x vs fixed)"
        )
    else:
        trials_note = f"trials={result.config['trials']}"
    return format_table(
        ["n", "alpha", "K", "p", "trials", "empirical", "limit"],
        rows,
        title=(
            f"Zero-one law sharpening (q={result.config['q']}, "
            f"P={result.config['pool_size']}, {trials_note})"
        ),
    )
