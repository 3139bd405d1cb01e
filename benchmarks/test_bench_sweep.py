"""Study-path bench: shared deployments vs the legacy per-point loop.

One deployment per trial (ring sample + overlap counts + one uniform
per candidate edge) serves all six ``(q, p)`` curves via nested
thinning and the vectorized min-label connectivity kernel.  The
per-point loop (:func:`benchmarks.conftest.run_per_point`) resamples
rings and recounts key overlaps for each curve instead.
"""

from __future__ import annotations

import time

from benchmarks.conftest import emit, run_once, run_per_point
from repro.experiments.figure1 import (
    FIGURE1_CURVES,
    build_figure1_study,
    default_ring_sizes,
    render_figure1,
    run_figure1,
)
from repro.simulation.engine import trials_from_env
from repro.study import MetricSpec, Scenario, run_scenario

SPEEDUP_FLOOR = 3.0


def test_bench_sweep_vs_legacy_quick_figure1(benchmark):
    trials = trials_from_env(20)
    ring_sizes = default_ring_sizes()

    start = time.perf_counter()
    legacy = run_per_point(build_figure1_study(trials=trials, ring_sizes=ring_sizes))
    legacy_s = time.perf_counter() - start

    start = time.perf_counter()
    sweep = run_once(
        benchmark, run_figure1, trials=trials, ring_sizes=ring_sizes, workers=1
    )
    sweep_s = time.perf_counter() - start

    speedup = legacy_s / sweep_s
    emit(
        "Shared deployments vs legacy per-point loop (quick Figure 1)",
        f"trials={trials}, rings={len(ring_sizes)}, curves=6\n"
        f"per-point: {legacy_s:.2f}s ({6 * len(ring_sizes) * trials} deployments)\n"
        f"shared:    {sweep_s:.2f}s ({len(ring_sizes) * trials} deployments)\n"
        f"speedup: {speedup:.2f}x\n\n"
        + render_figure1(sweep),
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"shared deployments only {speedup:.2f}x faster than per-point "
        f"(needs >= {SPEEDUP_FLOOR}x): per-point {legacy_s:.2f}s, shared {sweep_s:.2f}s"
    )

    # Both loops estimate the same model: CIs must overlap pointwise.
    for ps in sweep.points:
        curve = (ps.point["q"], ps.point["p"])
        pl = legacy["figure1", curve, "connectivity"].bernoulli(ring=ps.point["K"])
        assert ps.estimate.ci_low <= pl.ci_high
        assert pl.ci_low <= ps.estimate.ci_high


def test_bench_sweep_single_column(benchmark):
    """Micro-bench: one K column (all trials, all six curves)."""
    scenario = Scenario(
        name="column",
        num_nodes=1000,
        pool_size=10000,
        ring_sizes=(60,),
        curves=tuple(FIGURE1_CURVES),
        metrics=(MetricSpec("connectivity"),),
        trials=trials_from_env(10),
        seed=1,
    )
    result = run_once(benchmark, run_scenario, scenario, workers=1)
    assert result.values.shape == (1, scenario.trials, 6, 1)
