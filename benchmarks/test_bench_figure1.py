"""Figure 1 regeneration bench (paper Section IV).

Regenerates the paper's six empirical connectivity-vs-K curves and
checks the *shape* claims:

* every curve transitions from ~0 to ~1 over the K range;
* the six thresholds (empirical e^{-1} crossings) are ordered exactly
  as the paper draws them, left to right:
  (q=2,p=1) < (q=2,p=.5) < (q=2,p=.2) < (q=3,p=1) < (q=3,p=.5) < (q=3,p=.2);
* each crossing lies within a few ring sizes of the exact Eq. (9)
  threshold computed from the hypergeometric tail.

Quick mode uses a reduced trial count and K grid; REPRO_FULL=1 restores
the paper's 500 trials.
"""

from __future__ import annotations

import math

from benchmarks.conftest import emit, run_once
from repro.core.design import minimal_key_ring_size
from repro.experiments.figure1 import (
    empirical_crossings,
    render_figure1,
    run_figure1,
)
from repro.simulation.engine import trials_from_env

PAPER_CURVE_ORDER = [(2, 1.0), (2, 0.5), (2, 0.2), (3, 1.0), (3, 0.5), (3, 0.2)]


def test_bench_figure1_full_sweep(benchmark):
    trials = trials_from_env(30, full=500)
    result = run_once(
        benchmark,
        run_figure1,
        trials=trials,
        ring_sizes=list(range(28, 89, 6)),
    )
    emit("Figure 1: P[connected] vs K (6 curves)", render_figure1(result))

    crossings = empirical_crossings(result)
    ordered = [crossings[c] for c in PAPER_CURVE_ORDER]
    finite = [x for x in ordered if not math.isnan(x)]
    assert len(finite) == 6, "every curve must cross e^{-1} inside the K range"
    assert ordered == sorted(ordered), (
        f"curve thresholds out of paper order: {ordered}"
    )

    # Crossings near the exact Eq. (9) thresholds (hypergeometric).
    for (q, p), crossing in crossings.items():
        kstar = minimal_key_ring_size(1000, 10000, q, p)
        assert abs(crossing - kstar) <= 6, (q, p, crossing, kstar)

    # Transition completeness: every curve starts low and ends high.
    # The rightmost curve (q=3, p=0.2) only reaches ~0.86 by K=88 — its
    # alpha at K=88 is ≈ +1.9 — matching the paper's own figure, so the
    # upper check is 0.75, not ~1.
    by_curve = {}
    for pt in result.points:
        by_curve.setdefault(
            (int(pt.point["q"]), float(pt.point["p"])), []
        ).append((pt.point["K"], pt.estimate.estimate))
    for key, series in by_curve.items():
        series.sort()
        assert series[0][1] < 0.35, (key, "should start below the threshold")
        assert series[-1][1] > 0.75, (key, "should end mostly connected")


def test_bench_figure1_single_point_trial(benchmark):
    """Micro-bench: one deployment + decision at the heaviest Figure 1 point."""
    import numpy as np_

    from repro.graphs.unionfind import is_connected_pair_keys
    from repro.study.metrics import sample_deployment

    seeds = iter(range(10_000))

    def one_trial():
        rng = np_.random.default_rng(next(seeds))
        dep = sample_deployment(1000, 10000, 88, 2, rng, needs_onoff=False)
        return is_connected_pair_keys(1000, dep.candidates[dep.counts >= 2])

    benchmark(one_trial)
