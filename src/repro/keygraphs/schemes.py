"""Key predistribution scheme objects.

These classes wrap the ring samplers and edge rules behind the
operational API a WSN deployment uses: *assign* rings before
deployment, then decide link-by-link whether two sensors *can establish*
a secure link and what the resulting link key is.  The q-composite link
key is the hash of **all** shared keys (Chan–Perrig–Song §4.1), which is
what makes the scheme's capture resilience differ from plain
Eschenauer–Gligor — the attack layer exercises exactly this.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import ParameterError
from repro.keygraphs.pool import KeyPool
from repro.keygraphs.rings import sample_uniform_rings
from repro.keygraphs.uniform_graph import edges_from_rings
from repro.probability.hypergeometric import overlap_survival
from repro.utils.rng import RandomState
from repro.utils.validation import check_key_parameters, check_positive_int

__all__ = ["QCompositeScheme", "EschenauerGligorScheme", "shared_keys"]


def shared_keys(ring_a: np.ndarray, ring_b: np.ndarray) -> np.ndarray:
    """Sorted array of key ids present in both rings."""
    return np.intersect1d(
        np.asarray(ring_a, dtype=np.int64), np.asarray(ring_b, dtype=np.int64)
    )


class QCompositeScheme:
    """The q-composite key predistribution scheme (Chan et al. 2003).

    Parameters
    ----------
    key_ring_size, pool_size, q:
        ``K``, ``P``, and the required key overlap ``q >= 1``.
    pool:
        Optional explicit :class:`KeyPool`; by default one of size ``P``
        is created (deterministic key material).
    """

    def __init__(
        self,
        key_ring_size: int,
        pool_size: int,
        q: int,
        pool: Optional[KeyPool] = None,
    ) -> None:
        key_ring_size, pool_size, q = check_key_parameters(key_ring_size, pool_size, q)
        self.key_ring_size = key_ring_size
        self.pool_size = pool_size
        self.q = q
        if pool is not None and pool.size != self.pool_size:
            raise ParameterError(
                f"pool size {pool.size} does not match pool_size {pool_size}"
            )
        self.pool = pool if pool is not None else KeyPool(self.pool_size)

    # -- predeployment ---------------------------------------------------

    def assign_rings(self, num_nodes: int, seed: RandomState = None) -> np.ndarray:
        """Assign a uniform ``K``-ring to each of *num_nodes* sensors."""
        num_nodes = check_positive_int(num_nodes, "num_nodes")
        return sample_uniform_rings(
            num_nodes, self.key_ring_size, self.pool_size, seed
        )

    # -- link establishment ----------------------------------------------

    def can_establish(self, ring_a: np.ndarray, ring_b: np.ndarray) -> bool:
        """Return whether the two rings share at least ``q`` keys."""
        return shared_keys(ring_a, ring_b).size >= self.q

    def link_key(self, ring_a: np.ndarray, ring_b: np.ndarray) -> Optional[bytes]:
        """Derive the link key: hash of *all* shared key material.

        Returns ``None`` when fewer than ``q`` keys are shared (no secure
        link).  Hashing every shared key — not just ``q`` of them — is
        the q-composite rule that forces an adversary to capture the
        *entire* shared set to compromise a link.
        """
        common = shared_keys(ring_a, ring_b)
        if common.size < self.q:
            return None
        h = hashlib.sha256()
        for key_id in common.tolist():
            h.update(self.pool.key_material(int(key_id)))
        return h.digest()[:16]

    def link_compromised(
        self, ring_a: np.ndarray, ring_b: np.ndarray, captured_keys: Sequence[int]
    ) -> bool:
        """Return whether an adversary holding *captured_keys* learns the link key.

        True iff the link exists and every shared key is captured.
        """
        common = shared_keys(ring_a, ring_b)
        if common.size < self.q:
            return False
        captured = np.asarray(sorted(set(int(k) for k in captured_keys)), dtype=np.int64)
        return bool(np.isin(common, captured).all())

    # -- graph / probability views -----------------------------------------

    def key_graph_edges(self, rings: np.ndarray) -> np.ndarray:
        """Edge array of ``G_q`` induced by previously assigned rings."""
        return edges_from_rings(rings, self.q)

    def edge_probability(self) -> float:
        """``s(K, P, q)`` — probability two sensors can establish a link."""
        return overlap_survival(self.key_ring_size, self.pool_size, self.q)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(K={self.key_ring_size}, "
            f"P={self.pool_size}, q={self.q})"
        )


class EschenauerGligorScheme(QCompositeScheme):
    """The basic Eschenauer–Gligor scheme: q-composite with ``q = 1``."""

    def __init__(
        self, key_ring_size: int, pool_size: int, pool: Optional[KeyPool] = None
    ) -> None:
        super().__init__(key_ring_size, pool_size, q=1, pool=pool)
