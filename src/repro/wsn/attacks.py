"""Node-capture attacks and the q-composite resilience tradeoff.

The paper's introduction motivates the q-composite scheme by its
"strength against small-scale network capture attacks while trading off
increased vulnerability in the face of large-scale attacks" (Chan et
al. 2003).  This module quantifies that tradeoff:

* :func:`capture_attack` — simulate an adversary capturing ``x``
  sensors, pooling their key rings, and eavesdropping: a link between
  two *non-captured* sensors is compromised iff **all** of its shared
  keys are captured (the link key is the hash of the entire shared set).
* :func:`analytic_compromise_fraction` — the Chan–Perrig–Song closed
  form: a given key is captured with probability ``1 - (1 - K/P)^x``,
  so a link secured by ``m`` shared keys falls with probability
  ``(1 - (1 - K/P)^x)^m``, averaged over the conditional overlap
  distribution ``m | m >= q``.
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np

from repro.exceptions import ParameterError
from repro.probability.hypergeometric import overlap_pmf_vector
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import (
    check_key_parameters,
    check_nonnegative_int,
    check_positive_int,
)
from repro.wsn.network import SecureWSN

__all__ = [
    "CaptureAttackResult",
    "capture_attack",
    "analytic_compromise_fraction",
]


@dataclasses.dataclass(frozen=True)
class CaptureAttackResult:
    """Outcome of one simulated node-capture attack."""

    captured_nodes: List[int]
    num_captured_keys: int
    links_evaluated: int
    links_compromised: int

    @property
    def compromise_fraction(self) -> float:
        """Fraction of external secure links the adversary can read."""
        if self.links_evaluated == 0:
            return 0.0
        return self.links_compromised / self.links_evaluated


def capture_attack(
    network: SecureWSN, num_captured: int, seed: RandomState = None
) -> CaptureAttackResult:
    """Capture *num_captured* random live sensors and audit all external links.

    Only links between two non-captured sensors count ("external"):
    links touching a captured sensor are trivially lost with the node
    and are excluded, following Chan et al.'s resilience metric.
    Sensors that already failed can be neither captured nor linked.
    """
    num_captured = check_nonnegative_int(num_captured, "num_captured")
    live = np.array([s.node_id for s in network.sensors if s.alive], dtype=np.int64)
    if num_captured >= live.size:
        raise ParameterError("cannot capture every live sensor")
    rng = as_generator(seed)
    # With every sensor alive ``live`` is ``arange(n)``, so this draws
    # exactly what ``rng.choice(n, ...)`` draws.
    captured = np.sort(rng.choice(live, size=num_captured, replace=False)).astype(
        np.int64
    )

    pool_size = network.scheme.pool_size
    captured_mask = np.zeros(pool_size, dtype=bool)
    for node in captured:
        captured_mask[network.rings[int(node)]] = True

    captured_set = set(captured.tolist())
    evaluated = 0
    compromised = 0
    for u, v in network.secure_edges():
        u, v = int(u), int(v)
        if u in captured_set or v in captured_set:
            continue
        evaluated += 1
        common = np.intersect1d(network.rings[u], network.rings[v])
        if captured_mask[common].all():
            compromised += 1

    return CaptureAttackResult(
        captured_nodes=captured.tolist(),
        num_captured_keys=int(captured_mask.sum()),
        links_evaluated=evaluated,
        links_compromised=compromised,
    )


def analytic_compromise_fraction(
    key_ring_size: int, pool_size: int, q: int, num_captured: int
) -> float:
    """Chan–Perrig–Song estimate of the compromised-link fraction.

    ``sum_{m >= q} P[overlap = m | overlap >= q] * (1 - (1 - K/P)^x)^m``.

    The per-key capture probability treats rings as independent samples,
    which is asymptotically exact and accurate to within Monte Carlo
    noise at the paper's scales (validated by the attack experiment).
    """
    check_key_parameters(key_ring_size, pool_size, q)
    num_captured = check_nonnegative_int(num_captured, "num_captured")
    check_positive_int(q, "q")
    if num_captured == 0:
        return 0.0

    key_captured = 1.0 - (1.0 - key_ring_size / pool_size) ** num_captured
    pmf = overlap_pmf_vector(key_ring_size, pool_size)
    tail = pmf[q:]
    tail_mass = tail.sum()
    if tail_mass <= 0.0:
        return 0.0
    powers = key_captured ** np.arange(q, key_ring_size + 1, dtype=np.float64)
    return float((tail * powers).sum() / tail_mass)
