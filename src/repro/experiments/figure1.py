"""Figure 1: empirical connectivity probability vs key ring size.

Reproduces the paper's only figure: the probability that
``G_{n,q}(n, K, P, p)`` is connected as a function of ``K`` for
``q ∈ {2, 3}`` and ``p ∈ {0.2, 0.5, 1}``, at ``n = 1000``,
``P = 10000``.  The paper averages 500 Monte Carlo experiments per
point; the quick default here is 60 (``REPRO_TRIALS`` overrides,
``REPRO_FULL=1`` selects 500).

Each point also carries the Theorem 1 prediction
``exp(-e^{-α_n})`` evaluated at the *exact* deviation ``α_n``, so the
rendered output shows the asymptotic law tracking the empirical curve —
the paper's central claim — and the analysis helper extracts where each
empirical curve crosses ``e^{-1}`` (the α = 0 level) for comparison
against the Eq. (9) thresholds.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.theorem1 import predict_k_connectivity
from repro.params import QCompositeParams
from repro.simulation.engine import trials_from_env
from repro.simulation.results import CurvePoint, ExperimentResult
from repro.study import MetricSpec, Scenario, Study
from repro.utils.tables import format_table

__all__ = [
    "FIGURE1_CURVES",
    "default_ring_sizes",
    "build_figure1_study",
    "run_figure1",
    "render_figure1",
    "empirical_crossings",
]

#: The six (q, p) curves of Figure 1, leftmost threshold first.
FIGURE1_CURVES: List[Tuple[int, float]] = [
    (2, 1.0),
    (2, 0.5),
    (2, 0.2),
    (3, 1.0),
    (3, 0.5),
    (3, 0.2),
]

NUM_NODES = 1000
POOL_SIZE = 10000


def default_ring_sizes(step: int = 4) -> List[int]:
    """The paper's K range 28..88 on a configurable grid."""
    return list(range(28, 89, step))


def build_figure1_study(
    trials: Optional[int] = None,
    ring_sizes: Optional[Sequence[int]] = None,
    curves: Optional[Sequence[Tuple[int, float]]] = None,
    seed: int = 20170605,
    num_nodes: int = NUM_NODES,
    pool_size: int = POOL_SIZE,
) -> Study:
    """Figure 1 as a declaration: one scenario, six curves, one metric."""
    trials = trials if trials is not None else trials_from_env(60, full=500)
    ring_sizes = list(ring_sizes) if ring_sizes is not None else default_ring_sizes()
    curves = list(curves) if curves is not None else list(FIGURE1_CURVES)
    return Study(
        (
            Scenario(
                name="figure1",
                num_nodes=num_nodes,
                pool_size=pool_size,
                ring_sizes=tuple(ring_sizes),
                curves=tuple((int(q), float(p)) for q, p in curves),
                metrics=(MetricSpec("connectivity"),),
                trials=trials,
                seed=seed,
            ),
        )
    )


def run_figure1(
    trials: Optional[int] = None,
    ring_sizes: Optional[Sequence[int]] = None,
    curves: Optional[Sequence[Tuple[int, float]]] = None,
    seed: int = 20170605,
    workers: Optional[int] = None,
    num_nodes: int = NUM_NODES,
    pool_size: int = POOL_SIZE,
) -> ExperimentResult:
    """Run the Figure 1 sweep and return all points.

    Compiles the declaration from :func:`build_figure1_study` onto the
    shared-deployment study path: one ring sample + overlap count per
    ``(K, trial)`` serves all curves via nested channel thinning, which
    couples the curves for lower-variance comparisons.

    The default seed is fixed so published numbers are regenerable;
    pass a different seed for an independent replication.
    """
    trials = trials if trials is not None else trials_from_env(60, full=500)
    ring_sizes = list(ring_sizes) if ring_sizes is not None else default_ring_sizes()
    curves = list(curves) if curves is not None else list(FIGURE1_CURVES)
    curves = [(int(q), float(p)) for q, p in curves]
    study = build_figure1_study(trials, ring_sizes, curves, seed, num_nodes, pool_size)
    scenario_result = study.run(workers=workers)["figure1"]

    points: List[CurvePoint] = []
    for q, p in curves:
        for ring in ring_sizes:
            params = QCompositeParams(
                num_nodes=num_nodes,
                key_ring_size=ring,
                pool_size=pool_size,
                overlap=q,
                channel_prob=p,
            )
            points.append(
                CurvePoint(
                    point={"q": q, "p": p, "K": ring},
                    estimate=scenario_result.bernoulli("connectivity", (q, p), ring),
                    prediction=predict_k_connectivity(params, k=1).probability,
                )
            )
    return ExperimentResult(
        name="figure1",
        config={
            "num_nodes": num_nodes,
            "pool_size": pool_size,
            "trials": trials,
            "ring_sizes": list(ring_sizes),
            "curves": [list(c) for c in curves],
            "seed": seed,
        },
        points=points,
    )


def empirical_crossings(result: ExperimentResult) -> Dict[Tuple[int, float], float]:
    """Where each empirical curve crosses ``e^{-1}`` (linear interpolation).

    Theorem 1 places the α = 0 threshold exactly at probability
    ``e^{-1} ≈ 0.368``, so these crossings are the empirical analogue of
    the Eq. (9) ``K*`` values.
    """
    level = math.exp(-1.0)
    crossings: Dict[Tuple[int, float], float] = {}
    by_curve: Dict[Tuple[int, float], List[Tuple[int, float]]] = {}
    for pt in result.points:
        key = (int(pt.point["q"]), float(pt.point["p"]))
        by_curve.setdefault(key, []).append(
            (int(pt.point["K"]), pt.estimate.estimate)
        )
    for key, series in by_curve.items():
        series.sort()
        crossing = float("nan")
        for (k0, y0), (k1, y1) in zip(series, series[1:]):
            if y0 <= level <= y1 and y1 > y0:
                crossing = k0 + (level - y0) / (y1 - y0) * (k1 - k0)
                break
        crossings[key] = crossing
    return crossings


def render_figure1(result: ExperimentResult) -> str:
    """ASCII rendering: one table per curve plus the crossing summary."""
    blocks: List[str] = []
    by_curve: Dict[Tuple[int, float], List[CurvePoint]] = {}
    for pt in result.points:
        key = (int(pt.point["q"]), float(pt.point["p"]))
        by_curve.setdefault(key, []).append(pt)

    for (q, p), pts in sorted(by_curve.items()):
        pts.sort(key=lambda pt: pt.point["K"])
        rows = [
            [
                int(pt.point["K"]),
                pt.estimate.estimate,
                pt.estimate.ci_low,
                pt.estimate.ci_high,
                pt.prediction,
            ]
            for pt in pts
        ]
        blocks.append(
            format_table(
                ["K", "empirical", "ci_low", "ci_high", "theorem1"],
                rows,
                title=f"Figure 1 curve: q={q}, p={p} "
                f"(n={result.config['num_nodes']}, "
                f"P={result.config['pool_size']}, "
                f"trials={result.config['trials']})",
            )
        )

    crossing_rows = [
        [q, p, xing]
        for (q, p), xing in sorted(empirical_crossings(result).items())
    ]
    blocks.append(
        format_table(
            ["q", "p", "empirical e^-1 crossing (K)"],
            crossing_rows,
            title="Empirical threshold locations",
            floatfmt=".1f",
        )
    )
    return "\n\n".join(blocks)
