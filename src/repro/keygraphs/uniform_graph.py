"""Uniform q-intersection graph ``G_q(n, K, P)`` generation.

An edge joins two nodes whose rings share at least ``q`` keys.  The
shared-key counts come from the inverted key index: the
:func:`~repro.kernels.reference.overlap_counts` kernel sorts the
incidence by key, emits one pair event per co-holding pair per key and
counts pair multiplicities with a second sort plus one run-detection
pass.  The threshold ``q`` is applied inside the kernel (its
``min_count``): pairs sharing fewer keys are never emitted, so no
caller builds and then filters the all-pairs output.
Cost is proportional to the number of pair events, expected
``P * C(nK/P, 2)`` — around ``4·10^5`` at the paper's Figure 1 scale,
versus ``5·10^5`` node pairs times ``K`` for the naive scan.

Edge arrays are canonical ``(m, 2)`` int64 (``u < v``, sorted).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ParameterError
from repro.kernels import get_backend
from repro.keygraphs.rings import sample_uniform_rings
from repro.utils.rng import RandomState
from repro.utils.validation import check_positive_int

__all__ = [
    "edges_from_rings",
    "overlap_counts_from_rings",
    "uniform_intersection_edges",
]

Rings = Union[np.ndarray, Sequence[np.ndarray]]


def _flatten_rings(rings: Rings) -> Tuple[np.ndarray, np.ndarray, int]:
    """Return (node_ids, key_ids, num_nodes) incidence representation."""
    if isinstance(rings, np.ndarray):
        if rings.ndim != 2:
            raise ParameterError(
                f"uniform rings array must be 2-D, got shape {rings.shape}"
            )
        n, k = rings.shape
        node_ids = np.repeat(np.arange(n, dtype=np.int64), k)
        key_ids = rings.astype(np.int64, copy=False).ravel()
        return node_ids, key_ids, n
    rows: List[np.ndarray] = [np.asarray(r, dtype=np.int64) for r in rings]
    n = len(rows)
    if n == 0:
        raise ParameterError("rings must contain at least one node")
    node_ids = np.concatenate(
        [np.full(r.size, i, dtype=np.int64) for i, r in enumerate(rows)]
    ) if any(r.size for r in rows) else np.empty(0, dtype=np.int64)
    key_ids = (
        np.concatenate(rows) if any(r.size for r in rows) else np.empty(0, np.int64)
    )
    return node_ids, key_ids, n


def overlap_counts_from_rings(
    rings: Rings, min_count: int = 1
) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(pair_keys, counts)`` for pairs sharing ``min_count``+ keys.

    ``pair_keys`` encodes each unordered node pair ``(u, v), u < v`` as
    ``u * n + v``, sorted ascending; ``counts`` is the number of keys
    the pair shares.  Both are int64.  Pairs sharing fewer than
    *min_count* keys are absent (at the default of 1, every co-holding
    pair is present).  This is the primitive under both the q-composite
    edge rule (``min_count=q``) and the attack layer (which needs every
    co-holding pair's shared-key multiplicity).

    Key ids are pool indices and must be non-negative; a negative id
    raises :class:`~repro.exceptions.ParameterError`, and so does a
    *min_count* that is not an int >= 1.  The counting itself is a
    kernel (:mod:`repro.kernels`): a combined-code sort by key, then a
    pair-code sort plus one run-detection pass that emits only runs of
    at least *min_count* (:func:`repro.kernels.reference.overlap_counts`).
    """
    min_count = check_positive_int(min_count, "min_count")
    node_ids, key_ids, n = _flatten_rings(rings)
    if key_ids.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    lowest = int(key_ids.min())
    if lowest < 0:
        raise ParameterError(f"key ids must be non-negative, got {lowest}")
    return get_backend().overlap_counts(node_ids, key_ids, n, min_count)


def edges_from_rings(rings: Rings, q: int) -> np.ndarray:
    """Edge array of the q-intersection graph induced by *rings*.

    Parameters
    ----------
    rings:
        ``(n, K)`` array (uniform model) or ragged list (binomial model).
    q:
        Minimum number of shared keys for an edge.
    """
    q = check_positive_int(q, "q")
    chosen, _ = overlap_counts_from_rings(rings, q)
    n = len(rings)
    out = np.empty((chosen.size, 2), dtype=np.int64)
    out[:, 0] = chosen // n
    out[:, 1] = chosen % n
    return out


def uniform_intersection_edges(
    num_nodes: int,
    key_ring_size: int,
    pool_size: int,
    q: int,
    seed: RandomState = None,
) -> np.ndarray:
    """Sample ``G_q(n, K, P)`` and return its canonical edge array."""
    rings = sample_uniform_rings(num_nodes, key_ring_size, pool_size, seed)
    return edges_from_rings(rings, q)
