"""Sensor abstraction for the WSN layer."""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

__all__ = ["Sensor"]


@dataclasses.dataclass
class Sensor:
    """One deployed sensor.

    Attributes
    ----------
    node_id:
        Index ``0 .. n-1`` within the deployment (also the graph node id).
    ring:
        Sorted array of preloaded key ids.
    position:
        Optional ``(x, y)`` placement (populated under the disk model).
    alive:
        ``False`` once the sensor has failed or been captured; dead
        sensors carry no secure links in the current topology.
    """

    node_id: int
    ring: np.ndarray
    position: Optional[Tuple[float, float]] = None
    alive: bool = True

    @property
    def ring_size(self) -> int:
        """Number of keys held (the memory cost the paper dimensions)."""
        return int(self.ring.size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        status = "alive" if self.alive else "failed"
        return f"Sensor(id={self.node_id}, |ring|={self.ring_size}, {status})"
