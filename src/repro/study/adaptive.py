"""Adaptive trial allocation: CI-targeted extension of compiled studies.

A fixed trial count is the wrong resource allocation for threshold
phenomena like the zero-one law (Theorem 1): cells in the flat 0/1
tails resolve to a tight Wilson interval within tens of trials, while
cells in the transition band need thousands — and a fixed count must
be sized for the worst cell, overpaying everywhere else.  This driver
runs a compiled :class:`~repro.study.compiler.Study` in trial-block
rounds and, after each round, keeps extending only the ``(size, K,
curve)`` cells whose stopping statistic still exceeds the CI target.
There is one rule, :class:`AdaptivePolicy` ``(ci_target, max_trials,
block_trials)``:

* indicator metrics (per their
  :class:`~repro.study.scenario.MetricSpec`) stop when the 95% Wilson
  half-width of the cell's estimate drops to ``ci_target``;
* value metrics stop when the standard error of the mean does;
* every cell stops at ``max_trials``.

The Wilson rule already stops the saturated tails early: a 0/n cell
meets a 0.02 target at n = 93, while a p̂ = 0.5 cell needs 2,398
trials, so no separate tail target is needed — a caller who wants
looser cells passes a looser ``ci_target``.

Each round executes
:meth:`~repro.study.compiler.Study.run_extension` over the absolute
trial window ``[t, t + block)`` with the established ``(size_index,
ring_index, trial)`` SeedSequence addressing and merges the shard into
the accumulating result
(:meth:`~repro.study.result.StudyResult.merge`), so a converged
adaptive run is bit-for-bit identical to a one-shot run at the same
per-cell trial counts — determinism is never traded for adaptivity.
Converged cells hold ``NaN`` beyond their stopping point; estimator
accessors skip those slots, so every cell's estimate uses exactly the
trials it was allocated.

Because curves of one ``(size, K)`` column share sampled deployments
(the common-random-numbers engine), a column's worlds keep being
sampled while *any* of its cells is unconverged; converged cells are
merely no longer evaluated on them.  The per-cell accounting is still
the honest cost model for estimate production — a fixed design must
buy ``max_cell_trials`` samples for *every* cell, an adaptive one only
for the cells that need them — and skipping evaluation avoids the
per-curve connectivity/flow decisions, the dominant post-sampling
cost.

Every adaptive request — ``repro study``/``repro submit`` flags and
``repro serve`` job options — is read by :func:`policy_from_options`.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.exceptions import ParameterError
from repro.simulation.estimators import wilson_half_width
from repro.simulation.scheduler import SchedulerPolicy
from repro.study.compiler import ActiveMap, Study
from repro.study.result import ScenarioResult, StudyResult
from repro.study.scenario import Scenario
from repro.utils.validation import check_positive_int

__all__ = [
    "ADAPTIVE_OPTIONS",
    "AdaptivePolicy",
    "policy_from_options",
    "run_adaptive_study",
    "stopping_half_width",
    "mean_standard_error",
    "trial_allocation",
]

_events_mod = None


def _emit(kind: str, **fields: object) -> None:
    """Publish a progress event on the service bus, if anyone listens.

    Lazy import for the same reason as the scheduler's hook: the
    service layer imports the study layer, not the other way around.
    """
    global _events_mod
    if _events_mod is None:
        from repro.service import events as _events

        _events_mod = _events
    _events_mod.emit(kind, **fields)


def _open_cells(active: ActiveMap, plans) -> set:
    """The ``(group, size, ring, scenario, curve)`` cells still open."""
    cells = set()
    for (gi, si, ri), sel in active.items():
        for scenario, chosen in zip(plans[gi].scenarios, sel):
            for ci in chosen:
                cells.add((gi, si, ri, scenario.name, ci))
    return cells


def mean_standard_error(series: np.ndarray) -> float:
    """Standard error of the mean, ``s / sqrt(n)`` (sample std, ddof=1).

    Returns ``inf`` below two samples — a mean metric can never stop
    before its spread is measurable.
    """
    series = np.asarray(series, dtype=np.float64)
    n = series.size
    if n < 2:
        return math.inf
    return float(series.std(ddof=1)) / math.sqrt(n)


def stopping_half_width(series: np.ndarray, *, is_indicator: bool) -> float:
    """The statistic a cell's CI target is compared against.

    Indicators use the Wilson half-width of the cell's success count
    (well-behaved at the degenerate all-0/all-1 cells that dominate
    the zero-one tails); value metrics use the standard error of the
    mean.  An empty cell is infinitely unresolved.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.size == 0:
        return math.inf
    if is_indicator:
        return wilson_half_width(int(series.sum()), int(series.size))
    return mean_standard_error(series)


@dataclasses.dataclass(frozen=True)
class AdaptivePolicy:
    """Stopping rule of one adaptive run.

    Attributes
    ----------
    ci_target:
        Extension stops when a cell's stopping statistic (Wilson
        half-width for indicators, standard error for means) is at or
        below it.
    max_trials:
        Hard per-cell cap; cells still unconverged there stop anyway.
    block_trials:
        Trials added per round; defaults to each scenario's declared
        ``trials`` (the first round's size).
    """

    ci_target: float = 0.02
    max_trials: int = 4000
    block_trials: Optional[int] = None

    def __post_init__(self) -> None:
        # Positive, not (0, 1): Wilson half-widths live in (0, 0.5],
        # but the standard-error rule applies to value metrics on any
        # scale (degree counts, attack exposure), where targets >= 1
        # are perfectly sensible.
        if isinstance(self.ci_target, bool) or not isinstance(self.ci_target, numbers.Real):
            raise ParameterError(
                f"ci_target must be a real number, got {self.ci_target!r}"
            )
        if not self.ci_target > 0.0:
            raise ParameterError(
                f"ci_target must be positive, got {self.ci_target}"
            )
        object.__setattr__(
            self, "max_trials", check_positive_int(self.max_trials, "max_trials")
        )
        if self.block_trials is not None:
            object.__setattr__(
                self, "block_trials", check_positive_int(self.block_trials, "block_trials")
            )

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


#: Adaptive request option (CLI flag dest, job option key) -> the
#: :class:`AdaptivePolicy` field it sets.
ADAPTIVE_OPTIONS = {
    "target_ci": "ci_target",
    "max_trials": "max_trials",
    "block_trials": "block_trials",
}


def policy_from_options(options: Mapping[str, Any]) -> Optional[AdaptivePolicy]:
    """The :class:`AdaptivePolicy` an adaptive request asks for.

    *options* maps :data:`ADAPTIVE_OPTIONS` keys to values; an empty
    mapping is a fixed-trial run (``None``).  Unknown keys,
    ``max_trials``/``block_trials`` without ``target_ci`` and values
    the policy rejects raise :class:`ParameterError`.
    """
    unknown = set(options) - set(ADAPTIVE_OPTIONS)
    if unknown:
        raise ParameterError(
            f"unknown adaptive options {sorted(unknown)}; valid options: "
            f"{sorted(ADAPTIVE_OPTIONS)}"
        )
    if not options:
        return None
    if "target_ci" not in options:
        raise ParameterError(
            f"adaptive options {sorted(options)} tune adaptive runs and "
            "need 'target_ci'"
        )
    return AdaptivePolicy(
        **{ADAPTIVE_OPTIONS[key]: value for key, value in options.items()}
    )


def _cell_converged(
    res: ScenarioResult,
    scenario: Scenario,
    si: int,
    ri: int,
    ci: int,
    policy: AdaptivePolicy,
) -> bool:
    """Whether every metric of one ``(size, K, curve)`` cell has stopped."""
    for mi, metric in enumerate(scenario.metrics):
        series = res.series_at(si, ri, ci, mi)
        if series.size >= policy.max_trials:
            continue
        if stopping_half_width(series, is_indicator=metric.is_indicator) > policy.ci_target:
            return False
    return True


def _active_columns(
    plans, acc: StudyResult, policy: AdaptivePolicy
) -> ActiveMap:
    """Unconverged ``(size, K, curve)`` cells, keyed per schedulable column."""
    active: ActiveMap = {}
    for gi, plan in enumerate(plans):
        for si in range(plan.num_sizes):
            for ri in range(plan.num_rings):
                sel: List[Tuple[int, ...]] = []
                any_open = False
                for scenario in plan.scenarios:
                    res = acc[scenario.name]
                    open_curves = tuple(
                        ci
                        for ci in range(len(scenario.curves_at(si)))
                        if not _cell_converged(res, scenario, si, ri, ci, policy)
                    )
                    sel.append(open_curves)
                    any_open = any_open or bool(open_curves)
                if any_open:
                    active[(gi, si, ri)] = tuple(sel)
    return active


def run_adaptive_study(
    study: Study,
    policy: AdaptivePolicy,
    workers: Optional[int] = None,
    scheduler: Optional[SchedulerPolicy] = None,
) -> StudyResult:
    """Run *study* adaptively until every cell meets *policy*'s CI target.

    The scenarios' declared ``trials`` is the first round (every cell
    needs a minimum sample before its half-width means anything); each
    subsequent round extends the still-open cells by ``block_trials``
    more trials, capped at ``max_trials`` per cell.  Deployment
    families extend independently — a family whose cells all converge
    stops paying for the others.

    *scheduler* opts every round into fault-tolerant per-unit
    supervision (see :meth:`Study.run`).  Each round folds into the
    accumulated result through :meth:`StudyResult.merge`, so its
    ``units``, ``deployments`` and ``"faults"`` provenance count every
    round.

    Returns a :class:`StudyResult` whose provenance adds one
    ``"adaptive"`` entry: the policy, the per-round windows, and the
    final allocation summary (see :func:`trial_allocation`).  How
    many trials each cell holds is read from the results
    (``trial_range``, ``cell_trials()``), not from provenance.
    """
    acc = study.run(workers=workers, scheduler=scheduler)
    rounds: List[Dict[str, object]] = []

    for plan in study.compile():
        members = plan.scenarios
        group = Study(members)
        plans = [plan]  # the family's one plan, as ``group`` compiles it
        total = members[0].trials
        block = policy.block_trials or members[0].trials
        prev_open: Optional[set] = None
        while True:
            active = _active_columns(plans, acc, policy)
            open_now = _open_cells(active, plans)
            if prev_open is not None and prev_open - open_now:
                converged = sorted(prev_open - open_now)
                _emit(
                    "cell_converged",
                    count=len(converged),
                    cells=[list(c) for c in converged[:20]],
                    trials=total,
                )
            prev_open = open_now
            if not active or total >= policy.max_trials:
                break
            stop = min(total + block, policy.max_trials)
            shard = group.run_extension(
                total, stop, active=active, workers=workers, scheduler=scheduler
            )
            acc = acc.merge(shard)
            rounds.append(
                {
                    "scenarios": [m.name for m in members],
                    "trial_window": [total, stop],
                    "columns": len(active),
                    "open_cells": int(
                        sum(len(c) for sel in active.values() for c in sel)
                    ),
                }
            )
            _emit(
                "adaptive_round",
                scenarios=[m.name for m in members],
                window=[total, stop],
                open_cells=len(open_now),
            )
            total = stop
        if prev_open:
            # Cells still open at the cap: the cap, not convergence,
            # stopped them; downstream consumers can tell the difference.
            _emit(
                "adaptive_capped",
                count=len(prev_open),
                max_trials=policy.max_trials,
            )

    provenance = dict(acc.provenance)
    provenance["adaptive"] = {
        "policy": policy.to_dict(),
        "rounds": rounds,
        **trial_allocation(acc),
    }
    return StudyResult(results=acc.results, provenance=provenance)


def trial_allocation(result: StudyResult) -> Dict[str, object]:
    """Per-cell trial accounting of a (possibly adaptive) study result.

    ``trials_spent`` sums each ``(size, K, curve, metric)``
    cell's actual sample size; ``fixed_trial_cost`` is what a uniform
    design needs for the same per-cell precision everywhere — every
    cell at ``max_cell_trials``, the count the slowest cell required.
    ``savings_vs_fixed`` is their ratio: 1.0 for a fixed-trial run,
    and the adaptive headline otherwise.
    """
    cells = 0
    trials_spent = 0
    max_cell = 0
    min_cell: Optional[int] = None
    for res in result.results:
        scenario = res.scenario
        for si in range(scenario.num_sizes):
            for ri in range(len(scenario.ring_sizes_at(si))):
                for ci in range(len(scenario.curves_at(si))):
                    for mi in range(len(scenario.metrics)):
                        n = int(res.series_at(si, ri, ci, mi).size)
                        cells += 1
                        trials_spent += n
                        max_cell = max(max_cell, n)
                        min_cell = n if min_cell is None else min(min_cell, n)
    fixed = cells * max_cell
    return {
        "cells": cells,
        "trials_spent": trials_spent,
        "max_cell_trials": max_cell,
        "min_cell_trials": int(min_cell or 0),
        "fixed_trial_cost": fixed,
        "savings_vs_fixed": round(fixed / trials_spent, 3) if trials_spent else 1.0,
    }
