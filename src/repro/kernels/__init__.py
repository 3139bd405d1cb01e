"""The three hot-path kernels every Monte Carlo workload runs on.

The min-label connectivity union, candidate-pair overlap counting (only
pairs sharing at least ``min_count`` keys are emitted, so the
q-composite threshold is applied inside the kernel) and the exact
k-connectivity decision (Tarjan at ``k = 2``; at ``k >= 3`` a
Nagamochi–Ibaraki sparse certificate, then the closure scan) live on
:class:`~repro.kernels.reference.ReferenceBackend` (pure numpy).
Everything above (``graphs/``, ``keygraphs/``, ``study/``) calls them
through the one instance :func:`get_backend` returns, so a profiler can
wrap the class's methods in one place and see every kernel call.
"""

from __future__ import annotations

from repro.kernels.reference import ReferenceBackend

__all__ = ["ReferenceBackend", "get_backend", "resolve_backend_name"]

_KERNELS = ReferenceBackend()


def get_backend() -> ReferenceBackend:
    """The kernel instance every call site dispatches through."""
    return _KERNELS


def resolve_backend_name() -> str:
    """Name of the kernel set, stamped into benchmark host records."""
    return _KERNELS.name
