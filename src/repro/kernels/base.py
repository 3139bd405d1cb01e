"""The :class:`KernelBackend` interface: three narrow hot-path kernels.

Profiling across PRs 1–4 identified three kernels that dominate every
Monte Carlo workload in this repository:

1. **min-label connectivity union** — component labels of an edge array
   (the connectivity decision of every sweep trial);
2. **candidate-pair overlap counting** — shared-key multiplicities per
   co-holding node pair from the key → holders incidence (the sampling
   cost of every deployment);
3. **the exact k-connectivity decision** — Tarjan biconnectivity for
   ``k = 2`` and, for ``k >= 3``, a bootstrap closure around one pivot
   that asks a truncated-ISAP flow query only where the closure stalls,
   each after a Nagamochi–Ibaraki sparse-certificate preprocessing pass
   (the decision cost of every ``k >= 2`` sweep).

A backend supplies implementations of exactly these entry points and
nothing else; everything above (study compiler, experiments, WSN
layer) dispatches through
:func:`repro.kernels.get_backend`.  Backends must be *decision- and
value-identical*: swapping one never changes a result, only wall-clock
— the consistency-test corpus in ``tests/test_kernels.py`` pins this.

The contracts are deliberately array-first (only numpy arrays cross
the seam), so compiled backends (numba today, cupy in the planned GPU
exploration) can run without touching Python object graphs.
"""

from __future__ import annotations

import abc
import inspect
from typing import Dict, List, Tuple, Type, Union

import numpy as np

__all__ = ["KernelBackend", "kernel_contracts", "verify_backend_contract"]


class KernelBackend(abc.ABC):
    """Abstract kernel backend; see the module docstring for contracts."""

    #: Registry name (unique; used by config fields, CLI, and env var).
    name: str = "abstract"

    #: One-line provenance string (dependency versions etc.).
    description: str = ""

    # -- kernel 1: min-label connectivity union ------------------------

    @abc.abstractmethod
    def min_label_components(
        self, num_nodes: int, u: np.ndarray, v: np.ndarray
    ) -> np.ndarray:
        """Component label per node for the edge list ``(u[i], v[i])``.

        ``labels[i]`` must be the smallest node id in *i*'s component
        (so connectivity is ``(labels == 0).all()`` and the number of
        components is ``np.unique(labels).size``).  Endpoint arrays are
        int64 and may be empty.
        """

    # -- kernel 2: candidate-pair overlap counting ---------------------

    @abc.abstractmethod
    def overlap_counts(
        self, node_ids: np.ndarray, key_ids: np.ndarray, num_nodes: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Shared-key count per co-holding node pair.

        Input is the flattened incidence (``node_ids[i]`` holds
        ``key_ids[i]``; both int64, non-empty; ``0 <= node_ids <
        num_nodes`` and ``key_ids >= 0``, as key ids are pool indices;
        rows are unique — a node holds a key at most once, as key rings
        are subsets).  Returns ``(pair_keys, counts)`` where
        ``pair_keys`` encodes each unordered pair ``(a, b), a < b``
        sharing at least one key as ``a * num_nodes + b``, sorted
        ascending, and ``counts`` is the number of shared keys; both
        outputs are int64.  Pairs sharing zero keys are absent.
        """

    # -- kernel 3: the exact k-connectivity decision -------------------

    @abc.abstractmethod
    def sparse_certificate(
        self, num_nodes: int, edges: np.ndarray, k: int
    ) -> np.ndarray:
        """Nagamochi–Ibaraki sparse certificate for the κ >= k decision.

        Returns a subset of the ``(m, 2)`` int64 canonical edge array
        with at most ``k * (num_nodes - 1)`` edges such that the
        certificate subgraph is k-vertex-connected iff the input graph
        is (scan-first forest decomposition: the union of ``k``
        successive scan-first-search spanning forests, Cheriyan–Kao–
        Thurimella / Nagamochi–Ibaraki).  Row order of surviving edges
        is preserved.  Inputs that are already at or below the bound
        may be returned unchanged.
        """

    def k_connected(self, num_nodes: int, edges: np.ndarray, k: int) -> bool:
        """Exact decision: is the edge array's graph k-vertex-connected?

        The default composes the shared decision engine
        (:func:`repro.graphs.vertex_connectivity.is_k_connected_edges`)
        with this backend's kernels: min-label union for ``k = 1``, and
        for ``k >= 2`` this backend's :meth:`sparse_certificate`
        followed by Tarjan biconnectivity (``k = 2``) or the
        bootstrap-closure scan, which walks the uncertified edges and
        runs its truncated-ISAP flow queries on the certificate
        (``k >= 3``).  Backends with a fully compiled decision path
        may override.
        """
        from repro.graphs.vertex_connectivity import is_k_connected_edges

        return is_k_connected_edges(num_nodes, edges, k, backend=self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<KernelBackend {self.name}>"


def _signature_names(fn) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """(positional names incl. self, keyword-only names) of *fn*."""
    positional: List[str] = []
    kwonly: List[str] = []
    for param in inspect.signature(fn).parameters.values():
        if param.kind in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        ):
            positional.append(param.name)
        elif param.kind is inspect.Parameter.KEYWORD_ONLY:
            kwonly.append(param.name)
    return tuple(positional), tuple(kwonly)


def kernel_contracts() -> Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]]:
    """The live contract table: abstract kernel method → parameter names.

    One source of truth for every consumer that needs to know "what
    must a backend implement": the ``repro kernels`` probe validates
    loaded backends against it, and the R004 lint rule
    (:mod:`repro.analysis.rules.structure`) checks backend *source*
    against it — so neither can drift from the ABC.
    """
    return {
        name: _signature_names(getattr(KernelBackend, name))
        for name in sorted(KernelBackend.__abstractmethods__)
    }


def verify_backend_contract(
    backend: Union[KernelBackend, Type[KernelBackend]],
) -> List[str]:
    """Check *backend* against the kernel contracts; return problems.

    An empty list means the backend implements every contract with
    parameter names matching the ABC exactly (keyword call sites across
    the dispatch seam rely on the names, not just the arity).  Used by
    the ``repro kernels`` probe so a misdeclared backend fails its
    probe instead of failing deep inside a sweep.
    """
    cls = backend if isinstance(backend, type) else type(backend)
    problems: List[str] = []
    for name, (positional, kwonly) in kernel_contracts().items():
        impl = getattr(cls, name, None)
        if impl is None or getattr(impl, "__isabstractmethod__", False):
            problems.append(f"missing kernel contract {name!r}")
            continue
        got_pos, got_kw = _signature_names(impl)
        if got_pos != positional or got_kw != kwonly:
            problems.append(
                f"{name!r} signature {got_pos + got_kw} does not match "
                f"the contract {positional + kwonly}"
            )
    return problems
