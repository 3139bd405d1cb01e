"""Trial-window shards of a compiled study, run and folded in process.

A *shard* is an absolute trial window ``[start, stop)`` of the whole
study.  Executing a shard is
:meth:`~repro.study.compiler.Study.run_extension` over that window,
every deployment group in one call under the per-unit supervisor — so
every shard internally gets retries, pool-break recovery and
checksummed work-unit results for free, and no two shards ever share
a window.

Shards fold with :meth:`~repro.study.result.StudyResult.merge` in
trial order, bit-identical to the one-shot run: deployments are seeded
by absolute ``(size_index, ring_index, trial)`` addresses, so how the
trial axis was split never changes what was computed.  Shard results
stay in memory; nothing is serialized between execution and fold.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ExperimentError, ParameterError
from repro.simulation.scheduler import SchedulerPolicy
from repro.service import events
from repro.study.compiler import Study
from repro.study.result import StudyResult
from repro.utils.validation import check_positive_int

__all__ = [
    "make_shards",
    "execute_shard",
    "fold_shard_results",
    "run_sharded",
    "InProcessTransport",
]


def make_shards(
    window: Tuple[int, int], *, shards: Optional[int] = None
) -> List[Tuple[int, int]]:
    """Split the absolute trial window ``[start, stop)`` into contiguous shards.

    *shards* caps the split count (default 4); a window shorter than
    that splits into one-trial shards.
    """
    count = 4 if shards is None else check_positive_int(shards, "shards")
    start, stop = window
    if not 0 <= start < stop:
        raise ParameterError(f"invalid shard trial window [{start}, {stop})")
    edges = np.linspace(start, stop, min(stop - start, count) + 1).astype(int)
    return [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]


def execute_shard(
    study: Study,
    window: Tuple[int, int],
    workers: Optional[int] = None,
    scheduler: Optional[SchedulerPolicy] = None,
) -> StudyResult:
    """Run trials ``window`` of every scenario of *study*."""
    return study.run_extension(
        window[0], window[1], workers=workers, scheduler=scheduler
    )


def fold_shard_results(
    study: Study,
    parts: Sequence[StudyResult],
    *,
    window: Optional[Tuple[int, int]] = None,
) -> StudyResult:
    """Fold shard results, in trial order, into one study result.

    A left fold of :meth:`~repro.study.result.StudyResult.merge`, which
    also sums units and deployments and combines the fault reports.
    Every scenario must exactly cover *window* (default its full
    ``[0, trials)``) — a missing shard is an error, not silent NaN.
    """
    if not parts:
        raise ExperimentError("no shard results to fold")
    folded = functools.reduce(StudyResult.merge, parts)
    for scenario in study.scenarios:
        start, stop = (0, scenario.trials) if window is None else window
        covered = folded[scenario.name].trial_range
        if covered != (start, stop):
            raise ExperimentError(
                f"folded shards cover trial window {covered} of "
                f"scenario {scenario.name!r}, expected [{start}, {stop})"
            )
    return folded


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

    The sharded sibling of :meth:`Study.run`: split the study's trial
    range, execute every shard in this process (under *transport*'s
    workers and scheduler when given), fold in trial order.  Without
    *window* every scenario must declare the same trial count (the
    range to split); with it the result is an extension shard covering
    ``[start, stop)`` like :meth:`Study.run_extension` — the cache's
    delta path.  Provenance is the fold's (summed units, deployments
    and faults) plus the shard count; each result's ``trial_range``
    is the window it covers.
    """
    if transport is not None:
        workers, scheduler = transport.workers, transport.scheduler
    span = window
    if span is None:
        counts = sorted({sc.trials for sc in study.scenarios})
        if len(counts) != 1:
            raise ParameterError(
                f"sharded runs need one trial count across the study, got {counts}"
            )
        span = (0, counts[0])
    windows = make_shards(span, shards=shards)
    parts: List[StudyResult] = []
    for index, trial_window in enumerate(windows):
        events.emit(
            "shard_dispatched",
            shard=index,
            shards=len(windows),
            trial_window=list(trial_window),
        )
        parts.append(execute_shard(study, trial_window, workers, scheduler))
    folded = fold_shard_results(study, parts, window=window)
    events.emit("shard_folded", shards=len(windows), units=folded.provenance["units"])
    provenance = dict(folded.provenance)
    provenance["shards"] = len(windows)
    return StudyResult(results=folded.results, provenance=provenance)
