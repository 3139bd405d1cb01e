"""Structured progress events for the study execution service.

A tiny process-local pub/sub bus: producers deep in the stack — the
fault-tolerant scheduler (unit completed, fault quarantined), the
adaptive driver (cell converged, round finished), the shard runner
(shard dispatched/folded), the result cache (hit/miss/extension), and
the job queue (job lifecycle) — call :func:`emit`; consumers such as
``repro serve`` (which journals each job's events to a JSONL stream
read back by ``repro submit --wait`` / ``repro status``) register a
sink with :func:`subscribe`.

Design constraints, in order:

* **Zero cost when nobody listens.**  ``emit`` with no sinks is one
  attribute read and a falsy check; the engine's hot paths pay nothing
  for the service layer existing.
* **No repro imports.**  Producers live below the service layer
  (``simulation/scheduler.py``, ``study/adaptive.py``) and import this
  module lazily; importing it must never re-enter the package graph.
* **Context tagging, not plumbed arguments.**  The job queue runs
  concurrent jobs in threads sharing one bus; :func:`event_context`
  tags every event emitted within its scope (a ``contextvars``
  context) with e.g. ``job_id``, so sinks can demultiplex without any
  producer knowing jobs exist.

Events are plain data (:class:`Event`): a kind string, a wall-clock
timestamp, and a flat field mapping — JSON-serializable by
construction so they stream through files and sockets unmodified.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import threading
import time
from typing import Callable, Dict, Iterator, List, Tuple

__all__ = [
    "Event",
    "emit",
    "subscribe",
    "unsubscribe",
    "capture_events",
    "event_context",
]


@dataclasses.dataclass(frozen=True)
class Event:
    """One progress event: what happened, when, and its details."""

    kind: str
    time: float
    fields: Dict[str, object]

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"kind": self.kind, "time": self.time}
        out.update(self.fields)
        return out


_lock = threading.Lock()
_sinks: Tuple[Callable[[Event], None], ...] = ()

_context: contextvars.ContextVar[Tuple[Tuple[str, object], ...]] = (
    contextvars.ContextVar("repro_event_context", default=())
)


def subscribe(sink: Callable[[Event], None]) -> Callable[[Event], None]:
    """Register *sink* to receive every subsequent event; returns it."""
    global _sinks
    with _lock:
        _sinks = _sinks + (sink,)
    return sink


def unsubscribe(sink: Callable[[Event], None]) -> None:
    """Remove *sink*; unknown sinks are ignored (idempotent teardown)."""
    global _sinks
    with _lock:
        _sinks = tuple(s for s in _sinks if s is not sink)


def emit(kind: str, **fields: object) -> None:
    """Publish an event to every sink, tagged with the active context.

    Sink exceptions are swallowed: a broken progress consumer must
    never fail the computation it is observing.
    """
    sinks = _sinks  # snapshot: emit never holds the lock
    if not sinks:
        return
    extra = _context.get()
    if extra:
        merged = dict(extra)
        merged.update(fields)
        fields = merged
    event = Event(
        kind=kind,
        time=time.time(),  # repro: noqa[R002] -- progress-event timestamps are observability metadata, never folded into results
        fields=fields,
    )
    for sink in sinks:
        try:
            sink(event)
        except Exception:
            pass


@contextlib.contextmanager
def event_context(**extra: object) -> Iterator[None]:
    """Tag every event emitted in this scope (and thread) with *extra*."""
    merged = dict(_context.get())
    merged.update(extra)
    token = _context.set(tuple(merged.items()))
    try:
        yield
    finally:
        _context.reset(token)


@contextlib.contextmanager
def capture_events(kinds: Tuple[str, ...] = ()) -> Iterator[List[Event]]:
    """Collect events emitted in this scope into the yielded list.

    With *kinds* given, only those event kinds are kept.  The primary
    test/introspection helper; production consumers use long-lived
    :func:`subscribe` sinks.
    """
    captured: List[Event] = []

    def sink(event: Event) -> None:
        if not kinds or event.kind in kinds:
            captured.append(event)

    subscribe(sink)
    try:
        yield captured
    finally:
        unsubscribe(sink)
