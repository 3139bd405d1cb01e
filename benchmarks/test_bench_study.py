"""Study-compiler bench: the ROADMAP CRN experiments, shared vs per point.

``theorem1``, ``mindegree``, and ``degree_poisson`` post-filter the
same sampling primitives, so their study declarations ride one shared
deployment per ``(K, trial)`` cell with exact monotone deduction across
nested curves.  Each must beat the legacy per-point loop — a fresh
deployment for every ``(curve, metric)`` point, see
:func:`benchmarks.conftest.run_per_point` — by a wide margin on the
sweep-bound grids.  The full mindegree grid (exact k = 3 flow scans)
is timed by the ``mindegree_full`` workload of ``perfbench/run.py``.
"""

from __future__ import annotations

import time

from benchmarks.conftest import emit, run_once, run_per_point
from repro.experiments.degree_poisson import (
    build_degree_poisson_study,
    render_degree_poisson,
    run_degree_poisson,
)
from repro.experiments.mindegree_equiv import (
    build_mindegree_study,
    render_mindegree_equiv,
    run_mindegree_equiv,
)
from repro.experiments.theorem1_check import (
    build_theorem1_study,
    render_theorem1_check,
    run_theorem1_check,
)
from repro.simulation.engine import trials_from_env

SPEEDUP_FLOOR = 2.0


def _pair(benchmark, run, build, render, title, **kwargs):
    start = time.perf_counter()
    run_per_point(build(**kwargs), workers=1)
    legacy_s = time.perf_counter() - start

    start = time.perf_counter()
    result = run_once(benchmark, run, workers=1, **kwargs)
    study_s = time.perf_counter() - start

    emit(title, render(result))
    speedup = legacy_s / study_s
    assert speedup >= SPEEDUP_FLOOR, (
        f"{title}: study {study_s:.3f}s vs per-point {legacy_s:.3f}s "
        f"({speedup:.2f}x < {SPEEDUP_FLOOR}x floor)"
    )


def test_bench_theorem1_study_vs_legacy(benchmark):
    _pair(
        benchmark,
        run_theorem1_check,
        build_theorem1_study,
        render_theorem1_check,
        "theorem1 via study compiler",
        trials=trials_from_env(20),
    )


def test_bench_mindegree_study_vs_legacy(benchmark):
    _pair(
        benchmark,
        run_mindegree_equiv,
        build_mindegree_study,
        render_mindegree_equiv,
        "mindegree (sweep-bound ks=[1,2]) via study compiler",
        trials=trials_from_env(20),
        ks=(1, 2),
    )


def test_bench_degree_poisson_study_vs_legacy(benchmark):
    _pair(
        benchmark,
        run_degree_poisson,
        build_degree_poisson_study,
        render_degree_poisson,
        "degree_poisson via study compiler",
        trials=trials_from_env(20),
    )
