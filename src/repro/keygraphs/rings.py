"""Key-ring sampling.

Two ring models appear in the paper:

* **uniform rings** — every node independently receives a uniformly
  random ``K``-subset of the pool (the q-composite scheme proper, and
  the node model of ``G_q(n, K, P)``);
* **binomial rings** — every key joins a node's ring independently with
  probability ``x`` (the auxiliary graph ``H_q(n, x, P)`` of Lemma 5).

The uniform sampler is the Monte Carlo hot path, so it is vectorized: it
draws ``(n, K)`` i.i.d. key ids and rejects rows containing duplicates
(unbiased — i.i.d. draws conditioned on distinctness are exactly a
uniform ordered selection).  When ``K(K-1)/(2P)`` is large enough that
rejection would stall, it falls back to an ``O(nP)`` argpartition
shuffle, which is exact for any ``K <= P``.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.exceptions import ParameterError
from repro.utils.rng import RandomState, as_generator, sample_distinct_integers
from repro.utils.validation import (
    check_key_parameters,
    check_positive_int,
    check_probability,
)

__all__ = [
    "sample_uniform_rings",
    "sample_binomial_rings",
    "sample_class_labels",
    "sample_class_rings",
    "rings_to_incidence",
]

# Rejection sampling accepts a row with probability ~exp(-K(K-1)/(2P)).
# Below this threshold on K(K-1)/(2P), the expected number of passes is
# at most ~1/(1 - e^{-1}) ≈ 1.6 and rejection wins; above it, fall back.
_REJECTION_LIMIT = 1.0


def sample_uniform_rings(
    num_nodes: int,
    key_ring_size: int,
    pool_size: int,
    seed: RandomState = None,
) -> np.ndarray:
    """Sample ``n`` uniform ``K``-subsets of ``{0, ..., P-1}``.

    Returns an ``(n, K)`` int64 array with sorted rows (sorting does not
    change the subset distribution and makes downstream set operations
    cheap).
    """
    num_nodes = check_positive_int(num_nodes, "num_nodes")
    key_ring_size, pool_size, _ = check_key_parameters(key_ring_size, pool_size, 1)
    rng = as_generator(seed)
    n, k, p = num_nodes, key_ring_size, pool_size

    if k == p:
        return np.tile(np.arange(p, dtype=np.int64), (n, 1))

    density = k * (k - 1) / (2.0 * p)
    if density <= _REJECTION_LIMIT:
        rings = np.sort(rng.integers(0, p, size=(n, k), dtype=np.int64), axis=1)
        # Only redrawn rows can still contain duplicates, so the re-check
        # after each pass is restricted to them; accepted rows are final.
        bad_idx = np.flatnonzero((np.diff(rings, axis=1) == 0).any(axis=1))
        while bad_idx.size:
            redraw = np.sort(
                rng.integers(0, p, size=(bad_idx.size, k), dtype=np.int64), axis=1
            )
            rings[bad_idx] = redraw
            still = (np.diff(redraw, axis=1) == 0).any(axis=1)
            bad_idx = bad_idx[still]
        return rings

    # Dense fallback: per-row partial shuffle via argpartition of noise.
    noise = rng.random((n, p))
    picked = np.argpartition(noise, k - 1, axis=1)[:, :k].astype(np.int64)
    return np.sort(picked, axis=1)


def sample_binomial_rings(
    num_nodes: int,
    key_probability: float,
    pool_size: int,
    seed: RandomState = None,
) -> List[np.ndarray]:
    """Sample ``n`` binomial rings: each key kept i.i.d. with prob ``x``.

    Returns a ragged list of sorted int64 arrays (ring sizes differ by
    node — that is the point of the binomial model).  Sampling draws all
    ring sizes ``Bin(P, x)`` up front and then fills every ring with
    batched numpy draws: sparse rings go through one padded rejection
    matrix (i.i.d. draws conditioned on per-row distinctness — exactly a
    uniform subset per node, same argument as the uniform sampler),
    collision-heavy rings through the ``O(size)`` distinct-integer
    sampler or an ``O(P)`` partial shuffle when over half the pool.  No
    per-key Python loop remains.
    """
    num_nodes = check_positive_int(num_nodes, "num_nodes")
    pool_size = check_positive_int(pool_size, "pool_size")
    key_probability = check_probability(key_probability, "key_probability")
    rng = as_generator(seed)

    sizes = rng.binomial(pool_size, key_probability, size=num_nodes).astype(np.int64)
    rings: List[np.ndarray] = [np.empty(0, dtype=np.int64)] * num_nodes

    # Rejection is viable while the per-row collision exponent
    # size*(size-1)/(2P) stays small; collision-heavy rings fall back to
    # the O(size)-per-row distinct-integer sampler.
    rejection_ok = sizes * (sizes - 1) <= 2.0 * _REJECTION_LIMIT * pool_size
    sparse_rows = np.flatnonzero((sizes > 0) & rejection_ok)
    dense_rows = np.flatnonzero((sizes > 0) & ~rejection_ok)

    if sparse_rows.size:
        row_sizes = sizes[sparse_rows]
        width = int(row_sizes.max())
        cols = np.arange(width, dtype=np.int64)
        # Pad columns beyond each row's size with distinct sentinels
        # >= P so they can never collide with real draws or each other.
        pad = cols[None, :] >= row_sizes[:, None]
        sentinel = pool_size + cols

        block = rng.integers(
            0, pool_size, size=(sparse_rows.size, width), dtype=np.int64
        )
        filled = np.sort(np.where(pad, sentinel, block), axis=1)
        bad = (np.diff(filled, axis=1) == 0).any(axis=1)
        while bad.any():
            count = int(bad.sum())
            redraw = rng.integers(0, pool_size, size=(count, width), dtype=np.int64)
            filled[bad] = np.sort(np.where(pad[bad], sentinel, redraw), axis=1)
            bad = (np.diff(filled, axis=1) == 0).any(axis=1)
        for pos, row in enumerate(sparse_rows):
            rings[row] = filled[pos, : sizes[row]].copy()

    for row in dense_rows:
        size = int(sizes[row])
        if size > pool_size // 2:
            # Near-full ring: partial shuffle, O(P) per row.
            noise = rng.random(pool_size)
            picked = np.argpartition(noise, size - 1)[:size].astype(np.int64)
            picked.sort()
            rings[row] = picked
        else:
            # Mid-size ring: batched distinct draws, O(size) per row.
            rings[row] = sample_distinct_integers(pool_size, size, rng)

    return rings


def sample_class_labels(
    num_nodes: int,
    mu: Sequence[float],
    seed: RandomState = None,
) -> np.ndarray:
    """Draw i.i.d. class labels with class ``i`` chosen with probability ``mu[i]``.

    The heterogeneous (Eletreby–Yağan) model assigns every node a class
    before any ring is drawn.  Inverse-CDF sampling through one uniform
    per node keeps the draw count independent of the number of classes,
    which pins the stream layout for reproducibility.
    """
    num_nodes = check_positive_int(num_nodes, "num_nodes")
    weights = np.asarray(mu, dtype=np.float64)
    if weights.ndim != 1 or weights.size == 0:
        raise ParameterError("mu must be a non-empty 1-d probability vector")
    if (weights <= 0.0).any():
        raise ParameterError("every class probability mu[i] must be > 0")
    total = float(weights.sum())
    if abs(total - 1.0) > 1e-9:
        raise ParameterError(f"class probabilities mu must sum to 1, got {total}")
    rng = as_generator(seed)
    edges = np.cumsum(weights) / total
    # Guard the top edge against rounding so a uniform of ~1.0 cannot
    # index past the last class.
    edges[-1] = 1.0
    uniforms = rng.random(num_nodes)
    return np.searchsorted(edges, uniforms, side="right").astype(np.int64)


def sample_class_rings(
    labels: np.ndarray,
    ring_sizes: Sequence[int],
    pool_size: int,
    seed: RandomState = None,
) -> List[np.ndarray]:
    """Sample per-node rings with per-class sizes ``ring_sizes[labels[v]]``.

    Returns a ragged list of sorted int64 arrays, one per node, matching
    the binomial sampler's ring representation so ragged rings flow
    through the same overlap kernels.  Classes are filled in label order
    ``0..C-1`` through :func:`sample_uniform_rings`, which fixes the RNG
    stream layout: the draw sequence depends only on ``(labels,
    ring_sizes, pool_size)``.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.size == 0:
        raise ParameterError("labels must be a non-empty 1-d integer array")
    sizes = [check_positive_int(k, "ring_sizes[i]") for k in ring_sizes]
    if labels.min() < 0 or labels.max() >= len(sizes):
        raise ParameterError(
            f"labels must index into {len(sizes)} ring sizes, "
            f"got range [{labels.min()}, {labels.max()}]"
        )
    for k in sizes:
        check_key_parameters(k, pool_size, 1)
    rng = as_generator(seed)
    rings: List[np.ndarray] = [np.empty(0, dtype=np.int64)] * labels.size
    for cls, size in enumerate(sizes):
        members = np.flatnonzero(labels == cls)
        if not members.size:
            continue
        block = sample_uniform_rings(members.size, size, pool_size, seed=rng)
        for pos, node in enumerate(members):
            rings[node] = block[pos]
    return rings


def rings_to_incidence(rings, pool_size: int) -> np.ndarray:
    """Convert rings to a dense ``(n, P)`` uint8 membership matrix.

    Accepts either the ``(n, K)`` array of uniform rings or the ragged
    list of binomial rings.  The test oracle (``tests/oracle.py``)
    counts overlaps from its Gram matrix, independently of the
    sort-based overlap kernel.
    """
    pool_size = check_positive_int(pool_size, "pool_size")
    if isinstance(rings, np.ndarray):
        rows = [rings[i] for i in range(rings.shape[0])]
    else:
        rows = list(rings)
    out = np.zeros((len(rows), pool_size), dtype=np.uint8)
    for i, ring in enumerate(rows):
        ring = np.asarray(ring, dtype=np.int64)
        if ring.size and (ring.min() < 0 or ring.max() >= pool_size):
            raise ParameterError("ring contains key ids outside the pool")
        out[i, ring] = 1
    return out
