"""Shared helpers for the benchmark harness.

Every ``benchmarks/test_bench_*.py`` regenerates one of the paper's
tables/figures (or an ablation) under ``pytest benchmarks/
--benchmark-only``.  Trial counts default to quick values; set
``REPRO_TRIALS=<n>`` or ``REPRO_FULL=1`` for paper-fidelity runs.

The rendered tables are printed inside BEGIN/END banners so the
``bench_output.txt`` artifact doubles as the regenerated evaluation
section.
"""

from __future__ import annotations

import sys


def emit(title: str, body: str) -> None:
    """Print a rendered experiment block with banners (visible via -s
    or in captured output summaries)."""
    banner = "=" * 72
    sys.stdout.write(f"\n{banner}\nBEGIN {title}\n{banner}\n{body}\n{banner}\nEND {title}\n{banner}\n")
    sys.stdout.flush()


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(
        fn, args=args, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0
    )


def run_per_point(study, workers: int = 1):
    """Run every ``(scenario, curve, metric)`` point of *study* on its own.

    The per-point loop the shared-deployment compiler replaces: each
    point is a one-curve, one-metric scenario run separately, so it
    samples fresh rings and recounts key overlaps instead of sharing
    one deployment per ``(K, trial)``.  Returns ``{(scenario name,
    curve, metric label): ScenarioResult}``.
    """
    import dataclasses

    from repro.study import run_scenario

    out = {}
    for scenario in study.scenarios:
        for ci, curve in enumerate(scenario.curves):
            for mi, metric in enumerate(scenario.metrics):
                point = dataclasses.replace(
                    scenario,
                    name=f"{scenario.name}_c{ci}_m{mi}",
                    curves=(curve,),
                    metrics=(metric,),
                )
                out[scenario.name, curve, metric.label] = run_scenario(
                    point, workers=workers
                )
    return out


def kconn_fixture(dense: bool = False):
    """The shared k-connectivity bench fixture: ``(num_nodes, edges)``.

    One key-ring deployment at the mindegree bench scale (n = 300,
    K = 80, P = 10000, q = 2).  ``dense=False`` thins the channel near
    the k = 3 threshold (the graph the mindegree grid actually
    decides); ``dense=True`` keeps the channel fully on (~7x the
    certificate bound — the regime the Nagamochi–Ibaraki pass exists
    for).  Used by ``test_bench_kernels.py``.
    """
    import numpy as np

    from repro.core.scaling import channel_prob_for_alpha
    from repro.keygraphs.uniform_graph import uniform_intersection_edges

    n, ring, pool, q = 300, 80, 10000, 2
    edges = uniform_intersection_edges(n, ring, pool, q, seed=9)
    if not dense:
        p = channel_prob_for_alpha(n, ring, pool, q, 1.5, 3)
        edges = edges[np.random.default_rng(5).random(edges.shape[0]) < p]
    return n, edges
