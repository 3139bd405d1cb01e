"""Random graph generators: Erdős–Rényi ``G(n, p)``.

Two exact sampling backends are provided:

* ``dense`` — Bernoulli-samples every one of the ``N = n(n-1)/2``
  potential edges via chunked vectorized draws.  Cost ``O(N)``, memory
  bounded by the chunk size.  Best for the simulation scales of the
  paper (``n`` up to a few thousand).
* ``sparse`` — draws the edge count ``m ~ Binomial(N, p)`` and then a
  uniform ``m``-subset of the linear pair indices with Floyd's
  algorithm.  Cost ``O(m)``; exact because conditioned on its size the
  Bernoulli edge set is a uniform subset.

Both backends return a canonical ``(m, 2)`` int64 edge array with
``u < v`` in every row, sorted lexicographically.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ParameterError
from repro.utils.rng import RandomState, as_generator, sample_distinct_integers
from repro.utils.validation import check_positive_int, check_probability

__all__ = [
    "erdos_renyi_edges",
    "pair_index_to_edge",
    "edge_to_pair_index",
]

_CHUNK = 1 << 22  # 4M Bernoulli draws per chunk: ~32 MB of float64
_SPARSE_THRESHOLD = 1 << 25  # switch to O(m) sampling past ~33M pairs


def pair_index_to_edge(num_nodes: int, indices: np.ndarray) -> np.ndarray:
    """Decode linear pair indices to edges ``(i, j)`` with ``i < j``.

    The linear order enumerates pairs as ``(0,1), (0,2), ..., (0,n-1),
    (1,2), ...``; index ``t`` of pair ``(i, j)`` is
    ``offset(i) + j - i - 1`` with ``offset(i) = i(n-1) - i(i-1)/2``.
    The inverse uses the quadratic formula plus an exact integer fix-up
    to be safe against floating-point rounding.
    """
    n = num_nodes
    t = np.asarray(indices, dtype=np.int64)
    total = n * (n - 1) // 2
    if t.size and (t.min() < 0 or t.max() >= total):
        raise ParameterError("pair index outside [0, n(n-1)/2)")
    tw = 2 * n - 1
    disc = np.maximum(tw * tw - 8.0 * t.astype(np.float64), 0.0)
    i = ((tw - np.sqrt(disc)) / 2.0).astype(np.int64)
    i = np.clip(i, 0, n - 2)

    def offset(row: np.ndarray) -> np.ndarray:
        return row * (n - 1) - row * (row - 1) // 2

    # Fix-up: float rounding can land one row off in either direction.
    for _ in range(3):
        too_high = offset(i) > t
        if not too_high.any():
            break
        i = i - too_high.astype(np.int64)
    for _ in range(3):
        too_low = (i + 1 <= n - 2) & (offset(i + 1) <= t)
        if not too_low.any():
            break
        i = i + too_low.astype(np.int64)

    j = t - offset(i) + i + 1
    return np.stack([i, j], axis=1)


def edge_to_pair_index(num_nodes: int, edges: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pair_index_to_edge` (canonical ``u < v`` rows)."""
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        return np.empty(0, dtype=np.int64)
    i = np.minimum(edges[:, 0], edges[:, 1])
    j = np.maximum(edges[:, 0], edges[:, 1])
    return i * (num_nodes - 1) - i * (i - 1) // 2 + j - i - 1


def _sample_dense(
    num_nodes: int, prob: float, rng: np.random.Generator
) -> np.ndarray:
    total = num_nodes * (num_nodes - 1) // 2
    hits = []
    start = 0
    while start < total:
        stop = min(start + _CHUNK, total)
        mask = rng.random(stop - start) < prob
        idx = np.nonzero(mask)[0]
        if idx.size:
            hits.append(idx + start)
        start = stop
    if not hits:
        return np.empty((0, 2), dtype=np.int64)
    return pair_index_to_edge(num_nodes, np.concatenate(hits))


def _sample_sparse(
    num_nodes: int, prob: float, rng: np.random.Generator
) -> np.ndarray:
    total = num_nodes * (num_nodes - 1) // 2
    m = int(rng.binomial(total, prob))
    if m == 0:
        return np.empty((0, 2), dtype=np.int64)
    if m > total:  # pragma: no cover - binomial cannot exceed total
        m = total
    # Batched distinct-index draws (exact uniform m-subset of [0, total)),
    # replacing the per-element Floyd set loop.
    idx = sample_distinct_integers(total, m, rng)
    return pair_index_to_edge(num_nodes, idx)


def erdos_renyi_edges(
    num_nodes: int,
    prob: float,
    seed: RandomState = None,
    *,
    method: str = "auto",
) -> np.ndarray:
    """Sample the edge array of ``G(n, p)``.

    Parameters
    ----------
    num_nodes, prob:
        Graph size and independent edge probability.
    seed:
        Anything accepted by :func:`repro.utils.rng.as_generator`.
    method:
        ``"dense"``, ``"sparse"``, or ``"auto"`` (sparse for very large,
        very sparse graphs; dense otherwise).
    """
    num_nodes = check_positive_int(num_nodes, "num_nodes")
    prob = check_probability(prob, "prob")
    rng = as_generator(seed)
    if prob == 0.0 or num_nodes == 1:
        return np.empty((0, 2), dtype=np.int64)
    total = num_nodes * (num_nodes - 1) // 2
    if prob == 1.0:
        return pair_index_to_edge(num_nodes, np.arange(total, dtype=np.int64))

    if method == "auto":
        expected = total * prob
        method = (
            "sparse"
            if total > _SPARSE_THRESHOLD and expected < total / 64
            else "dense"
        )
    if method == "dense":
        return _sample_dense(num_nodes, prob, rng)
    if method == "sparse":
        return _sample_sparse(num_nodes, prob, rng)
    raise ParameterError(f"unknown method {method!r}; use dense/sparse/auto")


def expected_edge_count(num_nodes: int, prob: float) -> float:
    """Expected number of edges ``p n (n-1) / 2`` (used by tests/benches)."""
    num_nodes = check_positive_int(num_nodes, "num_nodes")
    prob = check_probability(prob, "prob")
    return prob * num_nodes * (num_nodes - 1) / 2.0

