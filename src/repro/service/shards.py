"""Trial-window shards of a compiled study, run and folded in process.

A *shard* is one deployment family (a compiled group) and an absolute
trial window ``[start, stop)`` of it.  Executing a shard is
:meth:`~repro.study.compiler.Study.run_extension` over that window on a
study of the group's scenarios alone, under the per-unit supervisor —
so every shard internally gets retries, pool-break recovery and
checksummed work-unit results for free.  A group's scenarios compile on
their own to the same plan (same seed, ``q_min`` and channel needs), so
the shard samples exactly the worlds the whole study would.

Shards fold with :meth:`~repro.study.result.ScenarioResult.merge` in
trial order, bit-identical to the one-shot run: deployments are seeded
by absolute ``(size_index, ring_index, trial)`` addresses, so how the
trial axis was split never changes what was computed.  Shard results
stay in memory; nothing is serialized between execution and fold.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ExperimentError, ParameterError
from repro.simulation.scheduler import SchedulerPolicy, combine_fault_reports
from repro.service import events
from repro.study.compiler import GroupPlan, Study
from repro.study.result import ScenarioResult, StudyResult

__all__ = [
    "Shard",
    "make_shards",
    "execute_shard",
    "fold_shard_results",
    "run_sharded",
    "InProcessTransport",
]

#: ``(group index, (start, stop))``: one compiled group's absolute
#: trial window.
Shard = Tuple[int, Tuple[int, int]]


def make_shards(
    plans: Sequence[GroupPlan],
    *,
    shards: Optional[int] = None,
    window: Optional[Tuple[int, int]] = None,
) -> List[Shard]:
    """Split each compiled group's trial range into contiguous windows.

    Every shard targets one deployment family (trial windows are
    per-family quantities).  *shards* caps the split count per family
    (default 4); *window* restricts all shards to the absolute trial
    range ``[start, stop)`` instead of each family's full ``[0,
    trials)`` — the cache uses this to shard delta (extension) work.
    """
    if shards is not None and (not isinstance(shards, int) or shards < 1):
        raise ParameterError(f"shards must be a positive int, got {shards!r}")
    out: List[Shard] = []
    for gi, plan in enumerate(plans):
        start, stop = (0, plan.trials) if window is None else window
        if not 0 <= start < stop:
            raise ParameterError(f"invalid shard trial window [{start}, {stop})")
        count = min(stop - start, 4 if shards is None else shards)
        edges = np.linspace(start, stop, count + 1).astype(int)
        out.extend(
            (gi, (int(a), int(b))) for a, b in zip(edges[:-1], edges[1:]) if b > a
        )
    return out


def execute_shard(
    plan: GroupPlan,
    window: Tuple[int, int],
    workers: Optional[int] = None,
    scheduler: Optional[SchedulerPolicy] = None,
) -> StudyResult:
    """Run trials ``window`` of one compiled group's scenarios."""
    return Study(plan.scenarios).run_extension(
        window[0], window[1], workers=workers, scheduler=scheduler
    )


def fold_shard_results(
    study: Study,
    parts: Sequence[StudyResult],
    *,
    window: Optional[Tuple[int, int]] = None,
) -> Tuple[Dict[str, ScenarioResult], Dict[str, object]]:
    """Fold shard results back into one result per scenario.

    *parts* are the shards' results in :func:`make_shards` order, which
    is trial order within each group; per scenario, their windows
    :meth:`~repro.study.result.ScenarioResult.merge` in that order.
    The folded result must exactly cover the expected window — a
    missing shard is an error, not silent NaN.  Returns
    ``(results_by_name, aggregate)`` where *aggregate* carries summed
    units/deployments and the combined fault report.
    """
    per_scenario: Dict[str, List[ScenarioResult]] = {}
    for part in parts:
        for res in part.results:
            per_scenario.setdefault(res.scenario.name, []).append(res)
    results: Dict[str, ScenarioResult] = {}
    for scenario in study.scenarios:
        pieces = per_scenario.get(scenario.name)
        if not pieces:
            raise ExperimentError(
                f"no shard produced results for scenario {scenario.name!r}"
            )
        folded = pieces[0]
        for res in pieces[1:]:
            folded = folded.merge(res)
        start, stop = (0, scenario.trials) if window is None else window
        if folded.trial_range != (start, stop):
            raise ExperimentError(
                f"folded shards cover trial window {folded.trial_range} of "
                f"scenario {scenario.name!r}, expected [{start}, {stop})"
            )
        results[scenario.name] = folded
    aggregate: Dict[str, object] = {
        "units": sum(int(part.provenance["units"]) for part in parts),  # type: ignore[call-overload]
        "deployments": sum(int(part.provenance["deployments"]) for part in parts),  # type: ignore[call-overload]
    }
    faults = [part.provenance.get("faults") for part in parts]
    combined = combine_fault_reports(faults)  # type: ignore[arg-type]
    if combined is not None:
        aggregate["faults"] = combined
    return results, aggregate


class InProcessTransport:
    """The pool workers and scheduler policy shards run under."""

    def __init__(
        self,
        workers: Optional[int] = None,
        scheduler: Optional[SchedulerPolicy] = None,
    ) -> None:
        self.workers = workers
        self.scheduler = scheduler


def run_sharded(
    study: Study,
    transport: Optional[InProcessTransport] = None,
    *,
    shards: Optional[int] = None,
    workers: Optional[int] = None,
    scheduler: Optional[SchedulerPolicy] = None,
    window: Optional[Tuple[int, int]] = None,
) -> StudyResult:
    """Run *study* as trial-window shards, folded bit-identically.

    The sharded sibling of :meth:`Study.run`: split each group's trial
    range, execute every shard in this process (under *transport*'s
    workers and scheduler when given), fold in trial order.  With
    *window* the result is an extension shard covering ``[start,
    stop)`` like :meth:`Study.run_extension` — the cache's delta path.
    Provenance records the shard count, per-scenario content hashes,
    executed units and deployments, and the combined fault report.
    """
    if transport is not None:
        workers, scheduler = transport.workers, transport.scheduler
    plans = study.compile()
    shard_list = make_shards(plans, shards=shards, window=window)
    parts: List[StudyResult] = []
    for index, (gi, trial_window) in enumerate(shard_list):
        events.emit(
            "shard_dispatched",
            shard=index,
            shards=len(shard_list),
            group=gi,
            trial_window=list(trial_window),
        )
        parts.append(execute_shard(plans[gi], trial_window, workers, scheduler))
    results, aggregate = fold_shard_results(study, parts, window=window)
    events.emit("shard_folded", shards=len(shard_list), units=aggregate["units"])
    provenance: Dict[str, object] = {
        "engine": "study/v1",
        "shards": len(shard_list),
        "scenario_hashes": {sc.name: sc.content_hash() for sc in study.scenarios},
        "units": aggregate["units"],
        "deployments": aggregate["deployments"],
    }
    if window is not None:
        provenance["trial_window"] = [int(window[0]), int(window[1])]
    if "faults" in aggregate:
        provenance["faults"] = aggregate["faults"]
    return StudyResult(
        results=tuple(results[s.name] for s in study.scenarios),
        provenance=provenance,
    )
