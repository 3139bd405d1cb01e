"""Binomial q-intersection graph ``H_q(n, x, P)`` (the Lemma 5 auxiliary).

``H_q(n, x, P)`` differs from the uniform graph only in the ring model:
each key joins each node's ring independently with probability ``x``,
so ring sizes are ``Binomial(P, x)`` instead of exactly ``K``.  The
coupling experiments sample it both independently and *jointly* with a
uniform graph, the joint sampler realizing the monotone coupling that
Lemma 5 asserts succeeds with probability ``1 - o(1)``.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.exceptions import ParameterError
from repro.keygraphs.rings import sample_binomial_rings, sample_uniform_rings
from repro.keygraphs.uniform_graph import edges_from_rings
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import (
    check_key_parameters,
    check_positive_int,
    check_probability,
)

__all__ = [
    "binomial_intersection_edges",
    "coupled_ring_pair",
]


def binomial_intersection_edges(
    num_nodes: int,
    key_probability: float,
    pool_size: int,
    q: int,
    seed: RandomState = None,
) -> np.ndarray:
    """Sample ``H_q(n, x, P)`` and return its canonical edge array."""
    rings = sample_binomial_rings(num_nodes, key_probability, pool_size, seed)
    return edges_from_rings(rings, q)


def coupled_ring_pair(
    num_nodes: int,
    key_ring_size: int,
    key_probability: float,
    pool_size: int,
    seed: RandomState = None,
) -> Tuple[np.ndarray, List[np.ndarray], bool]:
    """Jointly sample uniform rings and binomial sub-rings (Lemma 5 coupling).

    For each node, draw the binomial ring size ``B ~ Bin(P, x)``; when
    ``B <= K`` the binomial ring is taken to be a uniform ``B``-subset
    of the node's uniform ``K``-ring, which realizes the subset coupling
    exactly: every edge of ``H_q`` built from the sub-rings is an edge
    of ``G_q`` built from the full rings.  When some node draws
    ``B > K`` the subset embedding is impossible; that node's binomial
    ring is drawn from the whole pool instead and the coupling is marked
    failed.

    Returns
    -------
    (uniform_rings, binomial_rings, success):
        ``success`` is ``True`` iff every node satisfied ``B <= K``.
    """
    num_nodes = check_positive_int(num_nodes, "num_nodes")
    check_key_parameters(key_ring_size, pool_size, 1)
    key_probability = check_probability(key_probability, "key_probability")
    rng = as_generator(seed)

    uniform = sample_uniform_rings(num_nodes, key_ring_size, pool_size, rng)
    sizes = rng.binomial(pool_size, key_probability, size=num_nodes)
    success = bool((sizes <= key_ring_size).all())

    binomial: List[np.ndarray] = []
    for i, b in enumerate(sizes):
        b = int(b)
        if b <= key_ring_size:
            # Uniform B-subset of the node's own K-ring: subset coupling.
            if b == key_ring_size:
                sub = uniform[i].copy()
            else:
                picked = rng.choice(key_ring_size, size=b, replace=False)
                sub = np.sort(uniform[i][picked])
            binomial.append(sub)
        else:
            if b > pool_size:  # pragma: no cover - binomial cannot exceed P
                raise ParameterError("binomial ring larger than pool")
            picked = rng.choice(pool_size, size=b, replace=False)
            binomial.append(np.sort(picked.astype(np.int64)))
    return uniform, binomial, success
