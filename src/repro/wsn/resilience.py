"""Resilient connectivity under node capture (paper ref [36]).

A capture attack does double damage: the captured sensors disappear
*and* the adversary learns their keys, so links between surviving
sensors whose entire shared-key set is captured can no longer be
trusted.  *Resilient connectivity* asks whether the surviving sensors
remain connected using only uncompromised links — the operational
question behind "On resilience and connectivity of secure WSNs under
node capture attacks" (Zhao 2017, the paper's reference [36]).

This module evaluates it exactly on a deployed :class:`SecureWSN`:
remove captured sensors, drop every compromised surviving link, and
check connectivity (or k-connectivity) of what is left.
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np

from repro.exceptions import ParameterError
from repro.graphs.vertex_connectivity import is_k_connected_edges
from repro.utils.rng import RandomState, as_generator
from repro.wsn.network import SecureWSN

__all__ = ["ResilienceOutcome", "evaluate_resilience"]


@dataclasses.dataclass(frozen=True)
class ResilienceOutcome:
    """Result of one capture + resilient-connectivity evaluation."""

    captured_nodes: List[int]
    survivors: int
    surviving_links: int
    compromised_links: int
    connected_ignoring_compromise: bool
    resiliently_connected: bool

    @property
    def compromise_fraction(self) -> float:
        total = self.surviving_links + self.compromised_links
        return self.compromised_links / total if total else 0.0


def evaluate_resilience(
    network: SecureWSN,
    num_captured: int,
    seed: RandomState = None,
    *,
    k: int = 1,
) -> ResilienceOutcome:
    """Capture random live sensors; check k-connectivity over trusted links only.

    Survivors are the live sensors that were not captured; sensors that
    had already failed are neither capturable nor survivors.
    Non-destructive: the network's failure state is left untouched (the
    evaluation works on a relabeled copy of the surviving topology).
    """
    if num_captured < 0:
        raise ParameterError("num_captured must be >= 0")
    live = np.array([s.node_id for s in network.sensors if s.alive], dtype=np.int64)
    if num_captured >= live.size - 1:
        raise ParameterError("need at least two surviving sensors")
    rng = as_generator(seed)
    # With every sensor alive ``live`` is ``arange(n)``, so this draws
    # exactly what ``rng.choice(n, ...)`` draws.
    captured = set(int(x) for x in rng.choice(live, size=num_captured, replace=False))

    pool_size = network.scheme.pool_size
    captured_keys = np.zeros(pool_size, dtype=bool)
    for node in captured:
        captured_keys[network.rings[node]] = True

    survivors = [i for i in live.tolist() if i not in captured]
    relabel = {node: idx for idx, node in enumerate(survivors)}

    trusted: List[tuple] = []
    surviving: List[tuple] = []
    compromised = 0
    for u, v in network.secure_edges():
        u, v = int(u), int(v)
        if u in captured or v in captured:
            continue
        pair = (relabel[u], relabel[v])
        surviving.append(pair)
        common = np.intersect1d(network.rings[u], network.rings[v])
        if captured_keys[common].all():
            compromised += 1
        else:
            trusted.append(pair)

    n_live = len(survivors)
    trusted_arr = np.array(trusted, dtype=np.int64).reshape(-1, 2)
    all_arr = np.array(surviving, dtype=np.int64).reshape(-1, 2)

    return ResilienceOutcome(
        captured_nodes=sorted(captured),
        survivors=n_live,
        surviving_links=len(trusted),
        compromised_links=compromised,
        connected_ignoring_compromise=is_k_connected_edges(n_live, all_arr, k),
        resiliently_connected=is_k_connected_edges(n_live, trusted_arr, k),
    )
