"""Disk vs on/off channels at matched edge probability (Section IX).

The paper closes its related-work section with an open question: does a
zero–one law like Theorem 1 hold under the *disk* model?  It conjectures
yes, "in view of the similarity in (k-)connectivity between the random
graphs induced by the disk model and the on/off channel model".  This
experiment provides the empirical side of that conjecture: with the
channel marginal probability matched exactly (``π r² = p`` on the
torus), it compares the connectivity probability of the q-composite
scheme under both channel models across the threshold window.

The disk model's geometric dependence (triangle inequality) makes its
composed graph *harder* to connect at equal marginal — visible as the
disk column lagging the on/off column — while both transition in the
same narrow window, supporting the conjecture qualitatively.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.channels.disk import DiskChannel
from repro.core.theorem1 import predict_k_connectivity
from repro.params import QCompositeParams
from repro.simulation.engine import trials_from_env
from repro.simulation.results import CurvePoint, ExperimentResult
from repro.study import MetricSpec, Scenario, Study
from repro.utils.tables import format_table

__all__ = [
    "build_disk_study",
    "run_disk_comparison",
    "render_disk_comparison",
]


def build_disk_study(
    trials: Optional[int] = None,
    ring_sizes: Sequence[int] = (40, 50, 60, 70, 80),
    channel_prob: float = 0.5,
    num_nodes: int = 500,
    pool_size: int = 10000,
    q: int = 2,
    seed: int = 20170612,
) -> Study:
    """Two scenarios — on/off and disk — sharing one deployment family.

    Because both scenarios pin the same ``(n, P, K grid, trials,
    seed)``, the compiler samples the key rings *once* per ``(K,
    trial)`` and realizes both channel models on the same key graph:
    the on/off column thresholds one uniform per candidate edge, the
    disk column thresholds the torus distance at ``r = sqrt(p / pi)``
    (matched marginal).  The model comparison is therefore paired
    deployment-by-deployment — pure channel effect, no key-graph noise.
    """
    trials = trials if trials is not None else trials_from_env(60, full=300)
    common = dict(
        num_nodes=num_nodes,
        pool_size=pool_size,
        ring_sizes=tuple(int(r) for r in ring_sizes),
        curves=((q, float(channel_prob)),),
        metrics=(MetricSpec("connectivity"),),
        trials=trials,
        seed=seed,
    )
    return Study(
        (
            Scenario(name="disk_onoff", channel="onoff", **common),
            Scenario(name="disk_disk", channel="disk", **common),
        )
    )


def run_disk_comparison(
    trials: Optional[int] = None,
    ring_sizes: Sequence[int] = (40, 50, 60, 70, 80),
    channel_prob: float = 0.5,
    num_nodes: int = 500,
    pool_size: int = 10000,
    q: int = 2,
    seed: int = 20170612,
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Sweep K under both channel models at one matched marginal ``p``."""
    trials = trials if trials is not None else trials_from_env(60, full=300)
    disk = DiskChannel.for_edge_probability(channel_prob, torus=True)
    study = build_disk_study(
        trials, ring_sizes, channel_prob, num_nodes, pool_size, q, seed
    )
    study_result = study.run(workers=workers)
    curve = (q, channel_prob)
    points: List[CurvePoint] = []
    for ring in ring_sizes:
        params = QCompositeParams(
            num_nodes=num_nodes,
            key_ring_size=ring,
            pool_size=pool_size,
            overlap=q,
            channel_prob=channel_prob,
        )
        onoff_est = study_result["disk_onoff"].bernoulli("connectivity", curve, ring)
        disk_est = study_result["disk_disk"].bernoulli("connectivity", curve, ring)
        points.append(
            CurvePoint(
                point={
                    "K": ring,
                    "disk_estimate": disk_est.estimate,
                    "disk_ci_low": disk_est.ci_low,
                    "disk_ci_high": disk_est.ci_high,
                    "radius": disk.radius,
                },
                estimate=onoff_est,
                prediction=predict_k_connectivity(params, k=1).probability,
            )
        )
    return ExperimentResult(
        name="disk_comparison",
        config={
            "trials": trials,
            "ring_sizes": list(ring_sizes),
            "channel_prob": channel_prob,
            "num_nodes": num_nodes,
            "pool_size": pool_size,
            "q": q,
            "radius": disk.radius,
            "seed": seed,
        },
        points=points,
    )


def render_disk_comparison(result: ExperimentResult) -> str:
    rows = []
    for pt in result.points:
        rows.append(
            [
                int(pt.point["K"]),
                pt.estimate.estimate,
                pt.point["disk_estimate"],
                pt.prediction,
            ]
        )
    return format_table(
        ["K", "on/off empirical", "disk empirical", "theorem1 (on/off)"],
        rows,
        title=(
            "Disk vs on/off channels at matched marginal "
            f"p={result.config['channel_prob']} "
            f"(n={result.config['num_nodes']}, q={result.config['q']}, "
            f"r={result.config['radius']:.4f}, trials={result.config['trials']})"
        ),
    )
