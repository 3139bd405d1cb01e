"""The disk (random geometric) channel model — related-work extension.

Section IX of the paper contrasts the on/off channel with the *disk
model*: sensors are scattered over a bounded region and two sensors can
communicate iff their distance is at most a transmission radius ``r``.
A zero–one law for the q-composite scheme under the disk model is posed
as an open question; the library ships the model so users can run the
side-by-side comparison experiments (see ``benchmarks/test_bench_disk.py``).

Nodes are placed uniformly at random on the unit square, or on the unit
torus when boundary effects should be suppressed (the torus makes the
pairwise link probability exactly ``π r²`` for ``r <= 1/2``).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Tuple

import numpy as np

from repro.exceptions import ParameterError
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_in_range, check_positive_int

__all__ = ["DiskChannel"]


def _square_edge_probability(r: float) -> float:
    """Link probability of two uniform points in the unit square (Philip 2007)."""
    return r * r * (math.pi - 8.0 * r / 3.0 + r * r / 2.0)


@dataclasses.dataclass(frozen=True)
class DiskChannel:
    """Disk channel with transmission radius ``r`` on the torus or square."""

    radius: float
    torus: bool = dataclasses.field(default=True, kw_only=True)

    def __post_init__(self) -> None:
        radius = check_in_range(
            self.radius, "radius", low=0.0, high=math.sqrt(2.0), low_inclusive=False
        )
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "torus", bool(self.torus))

    def edge_probability(self) -> float:
        """Marginal link probability for uniformly placed nodes.

        Exact ``π r²`` on the torus (for ``r <= 1/2``); on the square the
        boundary-corrected closed form (Philip 2007) is used.
        """
        r = self.radius
        if self.torus:
            if r > 0.5:
                raise ParameterError(
                    f"torus edge probability implemented for radius <= 1/2 only, got {r}"
                )
            return math.pi * r * r
        if r > 1.0:
            raise ParameterError(
                f"square edge probability implemented for radius <= 1 only, got {r}"
            )
        return _square_edge_probability(r)

    @classmethod
    def for_edge_probability(cls, prob: float, *, torus: bool = True) -> "DiskChannel":
        """Disk channel whose marginal link probability equals *prob*.

        Enables matched-edge-probability comparisons against the on/off
        model (the open-question experiment of Section IX).
        """
        prob = check_in_range(
            prob, "prob", low=0.0, high=1.0, low_inclusive=False, high_inclusive=False
        )
        if torus:
            radius = math.sqrt(prob / math.pi)
            if radius > 0.5:
                raise ParameterError(
                    f"prob {prob} too large for the torus closed form (radius <= 1/2)"
                )
            return cls(radius, torus=True)
        # Bisect the monotone square-region formula.
        lo, hi = 1e-9, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if _square_edge_probability(mid) < prob:
                lo = mid
            else:
                hi = mid
        return cls(0.5 * (lo + hi), torus=False)

    def within_range(self, positions: np.ndarray, edges: np.ndarray) -> np.ndarray:
        """Is each candidate edge's pair at distance ``<= r``?

        A pure threshold on *positions* (an ``(n, 2)`` array): the
        minimum-image distance on the torus, the plain one on the square.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        delta = np.abs(positions[edges[:, 0]] - positions[edges[:, 1]])
        if self.torus:
            delta = np.minimum(delta, 1.0 - delta)
        return np.sqrt((delta * delta).sum(axis=1)) <= self.radius

    def sample_mask(
        self, num_nodes: int, edges: np.ndarray, seed: RandomState = None
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Place *num_nodes* sensors uniformly and mask the candidate edges.

        Draws ``rng.random((n, 2))`` positions and returns
        ``(within_range(positions, edges), positions)``.
        """
        num_nodes = check_positive_int(num_nodes, "num_nodes")
        positions = as_generator(seed).random((num_nodes, 2))
        return self.within_range(positions, edges), positions
