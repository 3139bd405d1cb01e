"""Pluggable kernel backends for the three Monte Carlo hot paths.

This package is the dispatch seam between the algorithmic layers and
their compute kernels.  A *backend* (:class:`~repro.kernels.base.
KernelBackend`) implements three narrow, array-first contracts — the
min-label connectivity union, candidate-pair overlap counting, and the
exact k-connectivity decision with its Nagamochi–Ibaraki sparse
certificate — and everything above (``graphs/``, ``keygraphs/``,
``simulation/``, ``study/``, the CLI) calls :func:`get_backend` instead
of a concrete implementation.  The GPU/cupy exploration and any future
compiled kernel plug in here by registering one more backend.

Selection, highest precedence first:

1. an explicit name argument (``get_backend("numba")``), which is how
   a ``Scenario``'s ``kernel_backend`` config field reaches the
   workers;
2. the process-wide active backend (:func:`set_backend` /
   :func:`use_backend` — the CLI ``--kernel-backend`` flag);
3. the ``REPRO_KERNEL_BACKEND`` environment variable;
4. the ``reference`` default (pure numpy, always available).

Resolution happens in the *submitting* process: the study compiler
resolves the ambient name before scheduling and pins it
into every work unit, so warm-pool workers honor an override made after
the pool was spawned (a forked worker's environment snapshot is stale
by then).  Optional-dependency backends (``numba``) are registered
unconditionally but load lazily; selecting one without its dependency
raises :class:`~repro.exceptions.KernelError` at resolution time, in
the parent, not deep inside a worker.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import os
from typing import Callable, Dict, Iterator, List, Optional

from repro.exceptions import KernelError
from repro.kernels.base import KernelBackend
from repro.kernels.reference import ReferenceBackend

__all__ = [
    "ENV_VAR",
    "KernelBackend",
    "available_backends",
    "backend_available",
    "get_backend",
    "register_backend",
    "resolve_backend_name",
    "set_backend",
    "use_backend",
]

#: Environment variable naming the default backend.
ENV_VAR = "REPRO_KERNEL_BACKEND"

_DEFAULT = "reference"

# name -> (loader, availability probe, unavailable-reason supplier)
_LOADERS: Dict[str, Callable[[], KernelBackend]] = {}
_AVAILABLE: Dict[str, Callable[[], bool]] = {}
_REASONS: Dict[str, Callable[[], str]] = {}
_INSTANCES: Dict[str, KernelBackend] = {}

#: Process-wide active backend name (set_backend / use_backend).
_ACTIVE: Optional[str] = None


def register_backend(
    name: str,
    loader: Callable[[], KernelBackend],
    *,
    available: Optional[Callable[[], bool]] = None,
    unavailable_reason: Optional[Callable[[], str]] = None,
) -> None:
    """Register a backend *loader* under *name*.

    *loader* is called at most once (instances are cached); *available*
    is a cheap availability probe consulted without loading (defaults
    to always-available).  Re-registering a name replaces it (tests and
    external packages use this to inject instrumented backends).
    """
    if not name or not isinstance(name, str):
        raise KernelError(f"backend name must be a non-empty string, got {name!r}")
    _LOADERS[name] = loader
    _AVAILABLE[name] = available if available is not None else (lambda: True)
    _REASONS[name] = (
        unavailable_reason if unavailable_reason is not None else (lambda: "")
    )
    _INSTANCES.pop(name, None)


def backend_names() -> List[str]:
    """Registered backend names, default first, then registration order."""
    names = list(_LOADERS)
    if _DEFAULT in names:
        names.remove(_DEFAULT)
        names.insert(0, _DEFAULT)
    return names


def backend_available(name: str) -> bool:
    """Whether *name* is registered and its dependencies import."""
    probe = _AVAILABLE.get(name)
    return bool(probe and probe())


def available_backends() -> List[Dict[str, object]]:
    """Registry listing: one info dict per registered backend.

    Keys: ``name``, ``available`` (dependency probe), ``default``
    (whether ambient resolution currently selects it), and ``reason``
    (why an unavailable backend is unavailable, else ``""``).

    Never raises: a broken ambient selection (e.g. a typo in
    ``REPRO_KERNEL_BACKEND``) marks no backend as default instead of
    crashing — this listing is the diagnostic surface for exactly that
    misconfiguration.
    """
    try:
        selected: Optional[str] = resolve_backend_name()
    except KernelError:
        selected = None
    out: List[Dict[str, object]] = []
    for name in backend_names():
        avail = backend_available(name)
        out.append(
            {
                "name": name,
                "available": avail,
                "default": name == selected,
                "reason": "" if avail else _REASONS[name](),
            }
        )
    return out


def resolve_backend_name(name: Optional[str] = None) -> str:
    """Resolve *name* (or the ambient default) to a registered name.

    Precedence for ``None``: active backend (:func:`set_backend` /
    :func:`use_backend`), then ``REPRO_KERNEL_BACKEND``, then
    ``"reference"``.  Unknown names raise :class:`KernelError` naming
    the registry — availability is *not* checked here (scenario
    validation wants name checking without importing numba).
    """
    source = "requested"
    if name is None:
        if _ACTIVE is not None:
            name, source = _ACTIVE, "active"
        else:
            env = os.environ.get(ENV_VAR, "").strip()
            if env:
                name, source = env, f"env {ENV_VAR}"
            else:
                return _DEFAULT
    if name not in _LOADERS:
        raise KernelError(
            f"unknown kernel backend {name!r} ({source}); "
            f"registered backends: {', '.join(backend_names())}"
        )
    return name


def get_backend(name: Optional[str] = None) -> KernelBackend:
    """Return the backend instance for *name* (ambient default if None).

    Loads lazily and caches; selecting a registered-but-unavailable
    backend raises :class:`KernelError` with the dependency failure.
    """
    name = resolve_backend_name(name)
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = _LOADERS[name]()
        _INSTANCES[name] = instance
    return instance


def set_backend(name: Optional[str]) -> None:
    """Set (or with ``None`` clear) the process-wide active backend.

    Validates the name *and* loads the backend immediately, so a bad
    ``--kernel-backend`` flag fails at the CLI boundary, not mid-sweep.
    """
    global _ACTIVE
    if name is None:
        _ACTIVE = None
        return
    get_backend(name)  # validates registration + availability
    _ACTIVE = name


@contextlib.contextmanager
def use_backend(name: Optional[str]) -> Iterator[KernelBackend]:
    """Context manager pinning the active backend for the duration.

    The worker-side half of the dispatch contract: work units carry a
    resolved backend name and wrap their evaluation in
    ``use_backend(name)`` so every kernel call site underneath —
    however deep — dispatches to the scheduled backend.  ``None`` pins
    whatever ambient resolution currently selects.
    """
    global _ACTIVE
    resolved = resolve_backend_name(name)
    backend = get_backend(resolved)
    previous = _ACTIVE
    _ACTIVE = resolved  # the registry key, which may differ from .name
    try:
        yield backend
    finally:
        _ACTIVE = previous


def _numba_importable() -> bool:
    try:
        return importlib.util.find_spec("numba") is not None
    except (ImportError, ValueError):  # pragma: no cover - exotic loaders
        return False


def _load_numba_backend() -> KernelBackend:
    module = importlib.import_module("repro.kernels.numba_backend")
    return module.make_backend()


register_backend("reference", ReferenceBackend)
register_backend(
    "numba",
    _load_numba_backend,
    available=_numba_importable,
    unavailable_reason=lambda: "optional dependency 'numba' is not installed",
)
