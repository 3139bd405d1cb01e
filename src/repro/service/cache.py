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
cells.  A run reports the units, deployments and faults of the work
*it* executed: a hit reports none, and an extension folds the stored
prefix into its delta with
:meth:`~repro.study.result.StudyResult.merge`, which adds nothing for
the prefix.

Entries (format ``repro-cache/v2``) hold values only, as raw bytes::

    {"format": "repro-cache/v2", "scenario_hash": "<key>",
     "scenario": {...}, "shape": [sizes, rings, trials, curves, metrics],
     "values": "<base64 of the little-endian float64 tensor>"}

``scenario`` is there for people reading the store; it is never parsed
back.  The requested :class:`Scenario` already hashes to the key, so a
lookup only checks the envelope, the non-trial axes of ``shape`` and
the byte length, and rebuilds each result from the requested scenario
itself: a hit runs no scenario parsing, validation or re-hashing.
Entries of any other format (the JSON-list ``repro-cache/v1`` ones
included) read as misses once and are replaced by the run that
follows.
"""

from __future__ import annotations

import base64
import itertools
import json
import math
import os
import pathlib
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.exceptions import ParameterError
from repro.simulation.scheduler import SchedulerPolicy
from repro.service import events
from repro.service.shards import InProcessTransport, run_sharded
from repro.study.compiler import Study, run_provenance
from repro.study.result import ScenarioResult, StudyResult
from repro.study.scenario import Scenario

__all__ = ["CACHE_FORMAT", "ResultCache", "run_cached"]

CACHE_FORMAT = "repro-cache/v2"

#: Per-process serial of temp-file names; with the pid it gives every
#: store its own temp file.
_TEMP_SERIAL = itertools.count()


def _create_temp(path: pathlib.Path) -> Tuple[int, pathlib.Path]:
    """Create a new temp file beside *path*, mode ``0o666`` less the umask.

    The operating system applies the umask to the ``0o666`` of
    ``os.open``, so an entry is as readable as any other file its
    writer creates (a ``tempfile.mkstemp`` file is ``0o600`` whatever
    the umask, which locks out other users sharing the cache).  The
    name adds the pid and a per-process serial to the entry's;
    ``O_EXCL`` never opens an existing file, and a name left by an
    earlier process with the same pid is skipped.
    """
    while True:
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{next(_TEMP_SERIAL)}.tmp")
        try:
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp
        except FileExistsError:
            continue


class ResultCache:
    """File-backed store mapping scenario content hash → value tensor.

    Layout: ``root/<hash[:2]>/<hash>.json`` (fan-out keeps directories
    small at scale).  Each write goes through its own same-directory
    temp file + ``rename``, so concurrent readers never observe a torn
    entry and concurrent writers never move each other's files.  Entries
    are created mode ``0o666`` less the umask, like the fan-out
    directories, so users sharing the cache can read each other's.
    """

    def __init__(self, root: Union[str, pathlib.Path]) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    @staticmethod
    def _envelope(text: str, key: str) -> Optional[Dict[str, object]]:
        """The parsed entry if it is this format's entry for *key*."""
        try:
            data = json.loads(text)
        except ValueError:
            return None
        if (
            not isinstance(data, dict)
            or data.get("format") != CACHE_FORMAT
            or data.get("scenario_hash") != key
        ):
            return None
        return data

    def lookup(self, scenario: Scenario) -> Optional[np.ndarray]:
        """The stored value tensor of *scenario*'s family, or ``None``.

        The content hash already proves the entry's identity, so the
        stored scenario is never parsed back: the entry's ``shape`` must
        match *scenario*'s axes around a non-empty trial axis, and its
        values must decode to exactly that many NaN-free float64 cells.
        Anything else (a hand edit, an interrupted write of an older
        version, an entry of another format) is a miss, never an error —
        the cache must only ever make runs cheaper.  Such an entry is
        also removed, so the store that replaces it is never blocked by
        it.
        """
        key = scenario.content_hash()
        path = self.path_for(key)
        try:
            text = path.read_text()
        except OSError:
            return None
        data = self._envelope(text, key)
        values = None if data is None else self._decode(data, scenario)
        if values is None:
            try:
                path.unlink()
            except OSError:
                pass
        return values

    @staticmethod
    def _decode(data: Dict[str, object], scenario: Scenario) -> Optional[np.ndarray]:
        shape = data.get("shape")
        axes = scenario.value_axes()
        if (
            not isinstance(shape, list)
            or len(shape) != len(axes) + 1
            or any(type(n) is not int for n in shape)
            or tuple(shape[:-3] + shape[-2:]) != axes
            or shape[-3] < 1
        ):
            return None
        try:
            raw = base64.b64decode(data["values"], validate=True)  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError):
            return None
        if len(raw) != 8 * math.prod(shape):
            return None
        values = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
        if np.isnan(values).any():
            return None
        return values

    def _stored_trials(self, key: str) -> int:
        """Trial coverage of the entry stored under *key*; 0 if unusable.

        Reads the entry's envelope and ``shape`` without decoding its
        values.  Re-read on every store: another process sharing the
        cache may have written a wider entry since this run's lookup.
        """
        try:
            data = self._envelope(self.path_for(key).read_text(), key)
        except OSError:
            return 0
        shape = None if data is None else data.get("shape")
        if isinstance(shape, list) and len(shape) >= 3 and type(shape[-3]) is int:
            return shape[-3]
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
            # For people reading the store; lookups never parse it.
            "scenario": result.scenario.to_dict(),
            "shape": list(result.values.shape),
            "values": base64.b64encode(
                result.values.astype("<f8").tobytes()
            ).decode("ascii"),
        }
        fd, tmp = _create_temp(path)
        try:
            with os.fdopen(fd, "w") as stream:
                stream.write(json.dumps(payload))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        return True


def _stored_result(
    scenario: Scenario, values: np.ndarray, trials: int
) -> ScenarioResult:
    """The first *trials* stored trials of *scenario*, as a result."""
    return ScenarioResult(
        scenario=scenario if trials == scenario.trials else scenario.with_trials(trials),
        values=np.ascontiguousarray(values[..., :trials, :, :]),
        metric_labels=scenario.metric_labels(),
    )


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
    stored_values = [cache.lookup(sc) for sc in study.scenarios]
    covered = min(
        (0 if values is None else values.shape[-3] for values in stored_values),
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
                _stored_result(sc, values, min(covered, requested))  # type: ignore[arg-type]
                for sc, values in zip(study.scenarios, stored_values)
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
