"""Fault-tolerant per-unit work scheduling on the warm pool.

:func:`run_units` is the one dispatcher of the library: every study
work unit (a ``(group, size, K-column, trial-block)`` tuple) and every
per-trial engine chunk (:func:`~repro.simulation.engine.run_trials`)
runs through it, inline for one worker and on the
warm pool (:mod:`repro.simulation.pool`) otherwise.  It supervises
units *individually*, so losing one unit never throws away another
unit's completed work:

* **bounded retries with jittered backoff** — a failed attempt (crash,
  drop, corrupt result, pool break) is re-queued up to ``max_retries``
  times, with deterministic exponential-backoff jitter;
* **result integrity** — workers ship results in an envelope carrying
  a checksum computed at the source; the supervisor re-validates on
  receipt, so truncated/corrupted shards are retried instead of folded
  into the tensor;
* **quarantine + graceful degradation** — a unit exhausting its budget
  is dead-lettered into the :class:`FaultReport`; the run returns
  partial results (``None`` per dead unit → ``NaN`` cells in the merge
  substrate) instead of discarding completed shards, unless the caller
  demands completeness (``allow_partial=False``): then the first
  quarantined unit stops the run with
  :class:`~repro.exceptions.DeadUnitError`, chained to its last
  exception;
* **pool-break recovery** — a worker death breaks the whole executor;
  the supervisor rebuilds the pool and re-queues every unit that was
  in flight.

Each unit has at most one attempt in flight at a time, and at most
``workers`` attempts run at once, submitted in list order: the order
of *units* is the schedule.  The study compiler sizes its trial blocks
by an analytic cost and lists them longest first, so the last units
to start are the shortest; there are no genuine stragglers to hedge
against, and on one host a running attempt cannot be preempted: the
supervisor neither times attempts out nor launches duplicates.

Without an explicit policy, units run under :data:`DEFAULT_POLICY` —
one retry, then fail fast — which is what a plain ``Study.run`` uses.

Determinism is unchanged: work units carry their own absolute-trial
seeds, so any retry computes bit-identical values, and a run that
converges under injected faults (:mod:`repro.simulation.faults`)
equals the fault-free one-shot run exactly — the chaos convergence
suite in CI proves it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import pickle
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import (
    CorruptResultError,
    DeadUnitError,
    InjectedFailure,
    ParameterError,
)
from repro.simulation import pool as pool_mod
from repro.simulation.faults import ChaosSpec, FailureInjector, chaos_from_env
from repro.utils.rng import grid_seed_sequence
from repro.utils.validation import check_nonnegative_int

__all__ = [
    "SchedulerPolicy",
    "DEFAULT_POLICY",
    "FaultReport",
    "run_units",
    "resolve_scheduler_policy",
    "combine_fault_reports",
    "payload_checksum",
]

#: Leading spawn-key index reserving the backoff-jitter stream, so it
#: never collides with strategy-decision streams (faults.py) under the
#: same chaos seed.
_BACKOFF_KEY = 101

#: Retry *k* of a unit sleeps ``min(_BACKOFF_CAP, _BACKOFF_BASE *
#: 2**(k-1)) * (1 + _BACKOFF_JITTER * u)`` seconds, where ``u`` is a
#: deterministic per-``(unit, k)`` uniform — jittered so retry storms
#: decorrelate, deterministic so runs reproduce.
_BACKOFF_BASE = 0.05
_BACKOFF_CAP = 2.0
_BACKOFF_JITTER = 0.5


@dataclasses.dataclass(frozen=True)
class SchedulerPolicy:
    """Knobs of one supervised run.

    Attributes
    ----------
    max_retries:
        Failed attempts a unit may accumulate beyond its first try
        before it is quarantined.
    chaos:
        Optional :class:`~repro.simulation.faults.ChaosSpec` injected
        around every unit execution (the CI fault harness).
    allow_partial:
        When ``False``, dead units raise
        :class:`~repro.exceptions.DeadUnitError` instead of degrading
        to a partial result.
    """

    max_retries: int = 3
    chaos: Optional[ChaosSpec] = None
    allow_partial: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "max_retries", check_nonnegative_int(self.max_retries, "max_retries")
        )
        if self.chaos is not None and not isinstance(self.chaos, ChaosSpec):
            object.__setattr__(self, "chaos", ChaosSpec.from_dict(self.chaos))

    def to_dict(self) -> Dict[str, object]:
        return {
            "max_retries": self.max_retries,
            "chaos": self.chaos.to_dict() if self.chaos else None,
            "allow_partial": self.allow_partial,
        }


#: The policy of a run that names none: one retry per unit (enough to
#: survive a single worker death), then fail fast with
#: :class:`~repro.exceptions.DeadUnitError`.
DEFAULT_POLICY = SchedulerPolicy(max_retries=1, allow_partial=False)


def resolve_scheduler_policy(
    policy: Optional[SchedulerPolicy],
) -> Optional[SchedulerPolicy]:
    """An explicit policy wins; else ``REPRO_CHAOS`` implies a default one.

    Returns ``None`` when the caller named no policy: :func:`run_units`
    then applies :data:`DEFAULT_POLICY`, and the study compiler writes
    no ``"scheduler"``/``"faults"`` provenance.
    """
    if policy is not None:
        return policy
    chaos = chaos_from_env()
    if chaos is not None:
        return SchedulerPolicy(chaos=chaos)
    return None


# -- fault accounting --------------------------------------------------


_EVENT_CAP = 200

_events_mod = None


def _emit(kind: str, **fields: object) -> None:
    """Publish a progress event on the service bus, if anyone listens.

    Imported lazily: the scheduler must not import the service layer at
    module load (service → study → scheduler is the forward direction).
    A bus with no subscribers makes this a near-free no-op.
    """
    global _events_mod
    if _events_mod is None:
        from repro.service import events as _events

        _events_mod = _events
    _events_mod.emit(kind, **fields)


@dataclasses.dataclass
class FaultReport:
    """Structured record of everything that went wrong (and was survived).

    Attached to study provenance under ``"faults"``; the dead-letter
    list is the degradation contract — every unit there corresponds to
    ``NaN`` (unevaluated) cells in the returned partial result.
    """

    units: int = 0
    completed: int = 0
    attempts: int = 0
    retries: int = 0
    crashes: int = 0
    errors: int = 0
    drops: int = 0
    corrupt: int = 0
    pool_breaks: int = 0
    dead_units: List[Dict[str, object]] = dataclasses.field(default_factory=list)
    events: List[Dict[str, object]] = dataclasses.field(default_factory=list)

    _FAULT_COUNTERS = ("retries", "crashes", "errors", "drops", "corrupt", "pool_breaks")
    _COUNTERS = ("units", "completed", "attempts") + _FAULT_COUNTERS

    @property
    def faulted(self) -> bool:
        """Whether anything at all deviated from the happy path."""
        return bool(self.dead_units) or any(
            getattr(self, name) for name in self._FAULT_COUNTERS
        )

    def record(self, unit: int, attempt: int, kind: str, detail: str = "") -> None:
        if len(self.events) < _EVENT_CAP:
            event: Dict[str, object] = {"unit": unit, "attempt": attempt, "kind": kind}
            if detail:
                event["detail"] = detail
            self.events.append(event)
        if kind == "quarantine":
            _emit("fault_quarantined", unit=unit, attempt=attempt, detail=detail)

    def summary(self) -> str:
        parts = [f"{self.completed}/{self.units} units"]
        for name in self._FAULT_COUNTERS:
            value = getattr(self, name)
            if value:
                parts.append(f"{name}={value}")
        if self.dead_units:
            parts.append(f"dead={[d['unit_index'] for d in self.dead_units]}")
        return ", ".join(parts)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {name: getattr(self, name) for name in self._COUNTERS}
        out["dead_units"] = list(self.dead_units)
        out["events"] = list(self.events)
        return out


def combine_fault_reports(reports: Sequence[Optional[Dict[str, object]]]) -> Optional[Dict[str, object]]:
    """Sum the fault-report dicts of disjoint executions.

    Counters sum; dead-letter and event lists concatenate (events stay
    capped).  Unit indices are positional per run, so each entry is
    stamped with its report's trial ``"window"`` (the compiler writes
    one into every report) unless it already carries one.  ``None``
    entries (runs that went unsupervised) are skipped; all-``None``
    input folds to ``None``.  Every report must describe work no other
    report covers: :meth:`~repro.study.result.StudyResult.merge`, the
    one caller, folds each executed trial window exactly once.
    """
    live = [report for report in reports if report]
    if not live:
        return None
    total = FaultReport()
    for report in live:
        for name in FaultReport._COUNTERS:
            setattr(total, name, getattr(total, name) + int(report.get(name, 0)))  # type: ignore[call-overload]
        window = report.get("window")
        for field in ("dead_units", "events"):
            entries = getattr(total, field)
            for entry in report.get(field, ()):  # type: ignore[attr-defined]
                if window is not None and "window" not in entry:
                    entry = dict(entry, window=list(window))  # type: ignore[call-overload]
                entries.append(entry)
    del total.events[_EVENT_CAP:]
    return total.to_dict()


# -- worker-side execution envelope ------------------------------------


@dataclasses.dataclass
class _Envelope:
    """What a worker ships back for one attempt."""

    payload: object
    checksum: str
    dropped: bool = False


def payload_checksum(payload: object) -> str:
    """Deterministic content hash used for result integrity checks.

    Arrays hash their raw bytes (bit-identical semantics, NaN-safe);
    anything else falls back to pickled bytes.
    """
    digest = hashlib.sha256()
    if isinstance(payload, np.ndarray):
        arr = np.ascontiguousarray(payload)
        digest.update(str(arr.dtype).encode())
        digest.update(str(arr.shape).encode())
        digest.update(arr.tobytes())
    else:
        digest.update(pickle.dumps(payload, protocol=4))
    return digest.hexdigest()


def _execute_unit(
    fn: Callable,
    chaos: Optional[Dict[str, object]],
    task: Tuple[int, int, object, bool],
) -> _Envelope:
    """Run one attempt worker-side, threading the chaos middleware.

    The checksum is computed *before* post-execution injection, so a
    ``partial``-strategy corruption is detectable at the supervisor,
    which re-validates every payload it receives.
    """
    unit_index, attempt, unit, inline = task
    injector = FailureInjector(ChaosSpec.from_dict(chaos)) if chaos is not None else None
    if injector is not None:
        injection = injector.plan(unit_index, attempt)
        injector.apply_before(injection, unit_index, attempt, inline)
    payload = fn(unit)
    checksum = payload_checksum(payload)
    dropped = False
    if injector is not None:
        payload, dropped = injector.apply_after(injection, unit_index, attempt, payload)
    return _Envelope(payload=payload, checksum=checksum, dropped=dropped)


def _backoff_delay(policy: SchedulerPolicy, unit: int, failure_count: int) -> float:
    delay = min(_BACKOFF_CAP, _BACKOFF_BASE * 2.0 ** max(0, failure_count - 1))
    seed = policy.chaos.seed if policy.chaos is not None else 0
    u = float(
        np.random.default_rng(
            grid_seed_sequence(seed, _BACKOFF_KEY, unit, failure_count)
        ).random()
    )
    return delay * (1.0 + _BACKOFF_JITTER * u)


# -- the supervisor ----------------------------------------------------


class _Supervisor:
    """One supervised run: inline for one worker, else a pool event loop.

    Both modes share the outcome bookkeeping (retry, backoff,
    quarantine, integrity checks, completion events).  A unit has at
    most one attempt in flight, so every result that lands is the
    unit's first.
    """

    def __init__(
        self,
        fn: Callable,
        units: List,
        workers: int,
        policy: SchedulerPolicy,
        report: FaultReport,
    ) -> None:
        self.fn = fn
        self.units = units
        self.workers = workers
        self.policy = policy
        self.report = report
        self.chaos_dict = policy.chaos.to_dict() if policy.chaos else None

        n = len(units)
        self.results: List[Optional[object]] = [None] * n
        self.done = [False] * n
        self.num_done = 0
        self.failures = [0] * n
        self.launches = [0] * n
        self.last_error: List[Optional[str]] = [None] * n
        self.ready: List[Tuple[float, int]] = []  # (ready_at, unit) heap
        self.inflight: Dict[Future, Tuple[int, int]] = {}  # -> (unit, attempt)

    # -- lifecycle -----------------------------------------------------

    def _open(self) -> None:
        self.executor = pool_mod.get_executor(self.workers)
        pool_mod.acquire_lease(self.executor)

    def _close(self) -> None:
        # A fail-fast stop leaves attempts in flight: queued ones are
        # cancelled, running ones finish in their worker uncollected.
        for future in self.inflight:
            future.cancel()
        pool_mod.release_lease(self.executor)

    def _fresh_executor(self) -> None:
        pool_mod.release_lease(self.executor)
        pool_mod.discard_executor()
        self.executor = pool_mod.get_executor(self.workers)
        pool_mod.acquire_lease(self.executor)

    # -- submission ----------------------------------------------------

    def _submit(self, unit: int) -> None:
        attempt = self.launches[unit]
        self.launches[unit] += 1
        task = (unit, attempt, self.units[unit], False)
        try:
            future = self.executor.submit(_execute_unit, self.fn, self.chaos_dict, task)
        except BrokenProcessPool:
            # A worker died an instant ago and submit itself noticed
            # before wait() could: treat it like any other pool break
            # (the attempted unit is a victim alongside everything in
            # flight).
            self._handle_pool_break([unit])
            return
        self.inflight[future] = (unit, attempt)
        self.report.attempts += 1

    def _drain_ready(self, now: float) -> None:
        while self.ready and self.ready[0][0] <= now and len(self.inflight) < self.workers:
            _, unit = heapq.heappop(self.ready)
            self._submit(unit)

    # -- outcomes ------------------------------------------------------

    def _schedule_retry_or_quarantine(
        self, unit: int, attempt: int, error: str, exc: Optional[BaseException]
    ) -> None:
        self.failures[unit] += 1
        self.last_error[unit] = error
        if self.failures[unit] > self.policy.max_retries:
            # Quarantined: nothing further is scheduled; the unit is dead.
            self.report.record(unit, attempt, "quarantine", error)
            if not self.policy.allow_partial:
                raise DeadUnitError(
                    f"work unit exhausted its retry budget (max_retries="
                    f"{self.policy.max_retries}): units [{unit}]; last error: {error}"
                ) from exc
            return
        self.report.retries += 1
        ready_at = time.monotonic() + _backoff_delay(
            self.policy, unit, self.failures[unit]
        )
        heapq.heappush(self.ready, (ready_at, unit))

    def _record_exception(self, unit: int, attempt: int, exc: BaseException) -> None:
        if isinstance(exc, InjectedFailure):
            self.report.crashes += 1
            kind = "crash"
        else:
            self.report.errors += 1
            kind = "error"
        detail = f"{type(exc).__name__}: {exc}"
        self.report.record(unit, attempt, kind, detail)
        self._schedule_retry_or_quarantine(unit, attempt, detail, exc)

    def _accept(self, unit: int, attempt: int, envelope: _Envelope) -> None:
        if envelope.dropped:
            self.report.drops += 1
            self.report.record(unit, attempt, "drop")
            self._schedule_retry_or_quarantine(unit, attempt, "result dropped", None)
            return
        if payload_checksum(envelope.payload) != envelope.checksum:
            self.report.corrupt += 1
            exc = CorruptResultError(
                f"unit {unit} attempt {attempt} returned a corrupt result "
                f"(checksum mismatch)",
                unit,
                attempt,
            )
            self.report.record(unit, attempt, "corrupt", str(exc))
            self._schedule_retry_or_quarantine(unit, attempt, str(exc), exc)
            return
        self.results[unit] = envelope.payload
        self.done[unit] = True
        self.num_done += 1
        self.report.completed += 1
        _emit(
            "unit_completed",
            unit=unit,
            attempt=attempt,
            completed=self.num_done,
            units=len(self.units),
        )

    def _handle_pool_break(self, broken: Sequence[int]) -> None:
        # ``broken`` holds the units whose futures already raised
        # BrokenProcessPool (popped in the completion loop); everything
        # still tracked in flight died with the same pool.
        self.report.pool_breaks += 1
        exc = BrokenProcessPool("worker pool broke")
        victims = sorted({*broken, *(unit for unit, _ in self.inflight.values())})
        self.inflight.clear()
        self._fresh_executor()
        for unit in victims:
            self.report.record(unit, self.launches[unit] - 1, "pool_break")
            self._schedule_retry_or_quarantine(
                unit, self.launches[unit] - 1, "worker pool broke", exc
            )

    # -- the loop ------------------------------------------------------

    def run(self) -> None:
        if self.workers == 1:
            self._run_inline()
            return
        self._open()
        try:
            self._run_pooled()
        finally:
            self._close()

    def _run_inline(self) -> None:
        """No pool: each unit runs to completion or quarantine in turn.

        The chaos middleware still applies (``broken_pool`` degrades to
        a crash so it cannot kill the calling process).
        """
        for unit in range(len(self.units)):
            self.ready = [(0.0, unit)]
            while self.ready:  # a failure re-queues the unit after backoff
                ready_at, _ = heapq.heappop(self.ready)
                time.sleep(max(0.0, ready_at - time.monotonic()))
                attempt = self.launches[unit]
                self.launches[unit] += 1
                self.report.attempts += 1
                task = (unit, attempt, self.units[unit], True)
                try:
                    envelope = _execute_unit(self.fn, self.chaos_dict, task)
                except Exception as exc:
                    self._record_exception(unit, attempt, exc)
                else:
                    self._accept(unit, attempt, envelope)

    def _run_pooled(self) -> None:
        self.ready = [(0.0, i) for i in range(len(self.units))]  # sorted: a heap
        while self.num_done < len(self.units):
            now = time.monotonic()
            self._drain_ready(now)
            if not self.inflight:
                if self.ready:
                    time.sleep(max(0.0, min(0.5, self.ready[0][0] - time.monotonic())))
                    continue
                break  # only quarantined units remain
            # Wake on the first completion, or when the next backed-off
            # retry is due while a worker slot is free.
            timeout = None
            if self.ready and len(self.inflight) < self.workers:
                timeout = max(0.0, self.ready[0][0] - now)
            completed, _ = wait(self.inflight, timeout=timeout, return_when=FIRST_COMPLETED)
            broken: List[int] = []
            for future in completed:
                unit, attempt = self.inflight.pop(future)
                try:
                    envelope = future.result()
                except BrokenProcessPool:
                    broken.append(unit)
                except Exception as exc:
                    self._record_exception(unit, attempt, exc)
                else:
                    self._accept(unit, attempt, envelope)
            if broken:
                self._handle_pool_break(broken)


def run_units(
    fn: Callable,
    units: Sequence,
    workers: Optional[int] = None,
    policy: Optional[SchedulerPolicy] = None,
) -> Tuple[List[Optional[object]], FaultReport]:
    """Run ``fn(unit)`` for every unit under per-unit supervision.

    Returns ``(results, report)`` where ``results`` holds one entry per
    unit in submission order — the unit's payload, or ``None`` for a
    quarantined (dead) unit when ``policy.allow_partial`` — and
    ``report`` is the structured :class:`FaultReport`.  *policy*
    defaults to :data:`DEFAULT_POLICY`.  Units carry their own seeds,
    so results do not depend on *workers*; ``1`` runs inline, and *fn*
    must be picklable otherwise.
    """
    policy = policy if policy is not None else DEFAULT_POLICY
    units = list(units)
    report = FaultReport(units=len(units))
    if not units:
        return [], report
    workers = pool_mod.default_workers() if workers is None else int(workers)
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    workers = min(workers, len(units))

    supervisor = _Supervisor(fn, units, workers, policy, report)
    supervisor.run()
    for index in range(len(units)):
        if not supervisor.done[index]:
            report.dead_units.append(
                {
                    "unit_index": index,
                    "failures": supervisor.failures[index],
                    "last_error": supervisor.last_error[index],
                }
            )
    return supervisor.results, report
