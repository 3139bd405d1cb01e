"""Sharded study execution service.

The serving layer over the merge substrate (PR 4) and the
fault-tolerant per-unit scheduler (PR 6):

* :mod:`repro.service.shards` — trial-window shards of a compiled
  study, run in process and folded back bit-identically with merge;
* :mod:`repro.service.cache` — the content-addressed result cache and
  its overlap resolution (cache hit + ``run_extension`` delta);
* :mod:`repro.service.queue` — the long-running study service behind
  ``repro serve`` / ``repro submit`` / ``repro status``;
* :mod:`repro.service.events` — the structured progress-event bus.

Submodules load lazily (PEP 562): lower layers (the scheduler, the
adaptive driver) import :mod:`repro.service.events` at emit time, and
this package must not drag the full study stack back in when that
happens mid-import.
"""

from __future__ import annotations

import importlib

_SUBMODULES = ("cache", "events", "queue", "shards")

__all__ = list(_SUBMODULES)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULES))
