"""The on/off channel model (independent Bernoulli channels).

Each of the ``n(n-1)/2`` channels is *on* with probability ``p``
independently — exactly the Erdős–Rényi overlay ``G(n, p)`` of the
paper's Eq. (1).  Only the channels of candidate edges (the key graph's)
matter for the secure topology, so a deployment draws one uniform per
candidate edge, in row order.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_probability

__all__ = ["OnOffChannel"]


@dataclasses.dataclass(frozen=True)
class OnOffChannel:
    """On/off channel with on-probability ``prob`` (the paper's ``p``)."""

    prob: float

    def __post_init__(self) -> None:
        prob = check_probability(self.prob, "prob", allow_zero=False)
        object.__setattr__(self, "prob", prob)

    def edge_probability(self) -> float:
        """Marginal probability that a given channel is on: ``p``."""
        return self.prob

    def sample_mask(
        self, num_nodes: int, edges: np.ndarray, seed: RandomState = None
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Channel state of each candidate edge: ``rng.random(m) < p``.

        Returns ``(mask, None)``; the on/off kind places no sensors, so
        *num_nodes* only keeps the signature shared with the disk kind.
        """
        rng = as_generator(seed)
        return rng.random(len(edges)) < self.prob, None
