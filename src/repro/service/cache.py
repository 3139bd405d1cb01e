"""Content-addressed result cache with trial-window overlap resolution.

The cache key is :meth:`Scenario.content_hash` — sha256 over the
scenario's canonical JSON normal form *minus* ``trials``.  Excluding
the trial count is the whole point: trials is the one axis results may
legally differ on while describing the same experiment, so a stored
60-trial result *is* the answer to a 40-trial query (truncate — trial
slots are addressed by absolute index) and *most* of the answer to a
100-trial query (extend — run only ``[60, 100)`` and merge).  Every
other field difference (seed, curves, grid, metrics, channel) changes
the hash and misses.

Dispositions of :func:`run_cached`, per study:

* ``hit`` — every scenario's stored window covers its request; zero
  work units execute.
* ``extension`` — stored windows cover a proper prefix;
  :meth:`Study.run_extension` (optionally split into in-process trial
  shards) computes only the missing ``[covered, requested)`` delta,
  merged and stored back.
* ``miss`` — no usable stored prefix; full run, stored.
* ``bypass`` — the study is uncacheable (mixed per-scenario trial
  counts); it runs plainly, unsharded, and nothing is stored.

Only complete (NaN-free) results are stored: a partial result (dead
units, adaptive raggedness) is not a valid prefix to extend, because a
one-shot run at the larger count would have evaluated the skipped
cells.  Entries hold values only.  A run reports the units,
deployments and faults of the work *it* executed: a hit reports none,
and an extension folds the stored prefix into its delta with
:meth:`~repro.study.result.StudyResult.merge`, which adds nothing for
the prefix.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import tempfile
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.exceptions import ParameterError
from repro.simulation.scheduler import SchedulerPolicy
from repro.service import events
from repro.service.shards import InProcessTransport, run_sharded
from repro.study.compiler import Study, run_provenance
from repro.study.result import ScenarioResult, StudyResult
from repro.study.scenario import Scenario

__all__ = ["CACHE_FORMAT", "CacheEntry", "ResultCache", "run_cached"]

CACHE_FORMAT = "repro-cache/v1"


@dataclasses.dataclass(frozen=True)
class CacheEntry:
    """One stored scenario result."""

    result: ScenarioResult

    @property
    def trials(self) -> int:
        return self.result.num_trials


class ResultCache:
    """File-backed store mapping scenario content hash → result JSON.

    Layout: ``root/<hash[:2]>/<hash>.json`` (fan-out keeps directories
    small at scale).  Each write goes through its own same-directory
    temp file + ``rename``, so concurrent readers never observe a torn
    entry and concurrent writers never move each other's files.
    """

    def __init__(self, root: Union[str, pathlib.Path]) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    def lookup(self, scenario: Scenario) -> Optional[CacheEntry]:
        """The stored entry for *scenario*'s family, or ``None``.

        Unreadable or mismatched entries (hand-edited, interrupted
        writes from pre-atomic-write versions, hash collisions) are
        treated as misses, never as errors — the cache must only ever
        make runs cheaper.  Such an entry is also removed: :meth:`store`
        trusts a cheap coverage read, so a malformed entry left in place
        could block the store that replaces it.
        """
        key = scenario.content_hash()
        path = self.path_for(key)
        try:
            text = path.read_text()
        except OSError:
            return None
        entry = self._parse(text, key)
        if entry is None:
            try:
                path.unlink()
            except OSError:
                pass
        return entry

    @staticmethod
    def _parse(text: str, key: str) -> Optional[CacheEntry]:
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            return None
        if not isinstance(data, dict) or data.get("format") != CACHE_FORMAT:
            return None
        if data.get("scenario_hash") != key:
            return None
        try:
            result = ScenarioResult.from_dict(data["result"])  # type: ignore[arg-type]
        except Exception:
            return None
        if result.scenario.content_hash() != key or result.trial_offset != 0:
            return None
        # Entries of earlier versions also carry a "faults" history;
        # it is ignored.
        return CacheEntry(result=result)

    def _stored_trials(self, key: str) -> int:
        """Trial coverage of the entry stored under *key*; 0 if unusable.

        Reads the entry's envelope and the nesting of its value array
        (trials are the third axis from the end) without rebuilding a
        :class:`ScenarioResult`.  Re-read on every store: another
        process sharing the cache may have written a wider entry since
        this run's lookup.
        """
        try:
            data = json.loads(self.path_for(key).read_text())
            result = data["result"]
            if (
                data["format"] != CACHE_FORMAT
                or data["scenario_hash"] != key
                or result.get("trial_offset", 0) != 0
            ):
                return 0
            shape = []
            values = result["values"]
            while isinstance(values, list) and values:
                shape.append(len(values))
                values = values[0]
            return int(shape[-3])
        except (OSError, ValueError, KeyError, TypeError, IndexError, AttributeError):
            return 0

    def store(self, result: ScenarioResult) -> bool:
        """Store *result* if it improves on what is held; report whether.

        Skipped (returns ``False``) when the result is partial
        (NaN-bearing — not a valid extension prefix), is itself a
        window shard (nonzero offset), or does not extend the stored
        trial coverage.
        """
        if result.trial_offset != 0:
            return False
        if np.isnan(result.values).any():
            return False
        key = result.scenario.content_hash()
        if self._stored_trials(key) >= result.num_trials:
            return False
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload: Dict[str, object] = {
            "format": CACHE_FORMAT,
            "scenario_hash": key,
            "result": result.to_dict(),
        }
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as stream:
                stream.write(json.dumps(payload))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        return True


def _plain_run(
    study: Study,
    transport: Optional[InProcessTransport],
    shards: Optional[int],
    workers: Optional[int],
    scheduler: Optional[SchedulerPolicy],
    window: Optional[Tuple[int, int]] = None,
) -> StudyResult:
    """Full or delta execution, split into shards if a transport is given."""
    if transport is not None:
        return run_sharded(study, transport, shards=shards, window=window)
    if window is not None:
        return study.run_extension(
            window[0], window[1], workers=workers, scheduler=scheduler
        )
    return study.run(workers=workers, scheduler=scheduler)


def run_cached(
    study: Study,
    cache: ResultCache,
    *,
    workers: Optional[int] = None,
    scheduler: Optional[SchedulerPolicy] = None,
    transport: Optional[InProcessTransport] = None,
    shards: Optional[int] = None,
) -> StudyResult:
    """Answer *study* from *cache*, computing only what is missing.

    Bit-identity contract: whatever the disposition, the returned
    per-scenario values equal a cold one-shot run of *study* exactly —
    truncation slices absolute-indexed trial slots, extension reruns
    the identical seeded windows, and merge concatenates them in order.
    With a *transport*, executed work runs as up to *shards* trial
    shards (:func:`~repro.service.shards.run_sharded`) under the
    transport's workers and scheduler; a bypassed study runs unsharded
    under them.  Provenance has the base keys of an executed run
    (:func:`~repro.study.compiler.run_provenance`) counting only the
    work this call executed, plus a ``"cache"`` entry recording the
    disposition, the store, covered/requested trials, the delta
    window and the executed-unit count.
    """
    if not isinstance(cache, ResultCache):
        raise ParameterError(
            f"cache must be a ResultCache, got {type(cache).__name__}"
        )
    if transport is not None:
        workers, scheduler = transport.workers, transport.scheduler
    names = sorted(sc.name for sc in study.scenarios)
    requested_counts = {sc.trials for sc in study.scenarios}
    if len(requested_counts) != 1:
        # Mixed trial counts have no single family window to resolve
        # overlap on, nor one trial range to shard.
        result = study.run(workers=workers, scheduler=scheduler)
        events.emit("cache_bypass", scenarios=names)
        provenance = dict(result.provenance)
        provenance["cache"] = {
            "disposition": "bypass",
            "executed_units": provenance["units"],
        }
        return StudyResult(results=result.results, provenance=provenance)

    requested = requested_counts.pop()
    entries = {sc.name: cache.lookup(sc) for sc in study.scenarios}
    covered = min(
        (entry.trials if entry is not None else 0 for entry in entries.values()),
        default=0,
    )
    delta_window: Optional[Tuple[int, int]] = None
    if covered == 0:
        disposition = "miss"
        events.emit(
            "cache_miss",
            scenarios=names,
            requested_trials=requested,
        )
        result = _plain_run(study, transport, shards, workers, scheduler)
    else:
        # Every entry covers at least ``covered`` trials.
        stored = StudyResult(
            results=tuple(
                entry.result.truncated(min(covered, requested))  # type: ignore[union-attr]
                for entry in entries.values()
            ),
            provenance=run_provenance(workers),
        )
        if covered >= requested:
            disposition = "hit"
            result = stored
            events.emit(
                "cache_hit",
                scenarios=names,
                covered_trials=covered,
                requested_trials=requested,
            )
        else:
            disposition = "extension"
            delta_window = (covered, requested)
            events.emit(
                "cache_extension",
                scenarios=names,
                covered_trials=covered,
                requested_trials=requested,
                delta_window=list(delta_window),
            )
            delta = _plain_run(
                study, transport, shards, workers, scheduler, window=delta_window
            )
            # The delta leads the fold: its provenance describes this
            # call's execution, and the stored prefix adds no work to it.
            result = delta.merge(stored)
    if disposition != "hit":
        for res in result.results:
            cache.store(res)

    provenance = dict(result.provenance)
    provenance["cache"] = {
        "disposition": disposition,
        "store": str(cache.root),
        "covered_trials": covered,
        "requested_trials": requested,
        "delta_window": list(delta_window) if delta_window else None,
        "executed_units": provenance["units"],
    }
    return StudyResult(results=result.results, provenance=provenance)
