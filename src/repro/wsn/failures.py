"""Failure injection.

k-connectivity is motivated by fault tolerance: the network should stay
connected "despite the failure of any (k-1) sensors or links" (paper,
abstract).  This module provides the two standard failure drivers —
uniformly random node failures and targeted worst-case probes — plus a
sampler that *certifies* the k-connectivity guarantee by exhaustively
or randomly knocking out ``k - 1`` sensors.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.exceptions import ParameterError
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_nonnegative_int, check_probability
from repro.wsn.network import SecureWSN

__all__ = [
    "random_node_failures",
    "apply_random_failures",
    "connectivity_after_failures",
    "worst_case_failure_search",
]


def random_node_failures(
    num_nodes: int, failure_prob: float, seed: RandomState = None
) -> np.ndarray:
    """Sample the failed-node id set: each node fails i.i.d. with given prob."""
    failure_prob = check_probability(failure_prob, "failure_prob")
    rng = as_generator(seed)
    mask = rng.random(num_nodes) < failure_prob
    return np.flatnonzero(mask).astype(np.int64)


def apply_random_failures(
    network: SecureWSN, failure_prob: float, seed: RandomState = None
) -> np.ndarray:
    """Fail each live sensor independently; return the newly failed ids.

    One uniform is drawn per sensor, live or not, so the stream does
    not depend on the failure state; sensors that had already failed
    stay failed and are not returned.
    """
    drawn = random_node_failures(network.num_nodes, failure_prob, seed)
    alive = np.array([s.alive for s in network.sensors], dtype=bool)
    failed = drawn[alive[drawn]]
    network.fail_nodes(failed.tolist())
    return failed


def connectivity_after_failures(
    network: SecureWSN, failed: Sequence[int]
) -> bool:
    """Is the network still connected after failing *failed* sensors?

    Non-destructive: the network's failure state is restored afterwards.
    """
    previously_dead = [s.node_id for s in network.sensors if not s.alive]
    network.fail_nodes(list(failed))
    try:
        return network.is_connected()
    finally:
        network.restore_all()
        if previously_dead:
            network.fail_nodes(previously_dead)


def worst_case_failure_search(
    network: SecureWSN,
    num_failures: int,
    *,
    max_combinations: int = 20000,
    seed: RandomState = None,
) -> Tuple[bool, List[int]]:
    """Search for a ``num_failures``-node set whose removal disconnects the net.

    Candidate sets are drawn from the live sensors (failed ones are
    already gone).  Exhaustive when the number of candidate sets is at
    most *max_combinations*; otherwise a uniform random sample of that
    many sets is probed.  Returns ``(survives_all_probed, witness)``
    where *witness* is a disconnecting set if one was found (else empty).

    Note: with an exhaustive search, ``survives_all_probed=True`` is a
    proof that the live network is ``(num_failures + 1)``-connected or
    better (provided it was connected to begin with).
    """
    num_failures = check_nonnegative_int(num_failures, "num_failures")
    live = [s.node_id for s in network.sensors if s.alive]
    n = len(live)
    if num_failures >= n:
        raise ParameterError("cannot fail at least as many sensors as are live")
    if num_failures == 0:
        return network.is_connected(), []

    total = 1
    for i in range(num_failures):
        total = total * (n - i) // (i + 1)

    candidates: Iterable[Tuple[int, ...]]
    if total <= max_combinations:
        candidates = itertools.combinations(live, num_failures)
    else:
        rng = as_generator(seed)
        live_ids = np.array(live, dtype=np.int64)
        # With every sensor alive this draws what ``rng.choice(n, ...)``
        # draws.
        candidates = (
            tuple(sorted(rng.choice(live_ids, num_failures, replace=False).tolist()))
            for _ in range(max_combinations)
        )

    for combo in candidates:
        if not connectivity_after_failures(network, list(combo)):
            return False, list(combo)
    return True, []
