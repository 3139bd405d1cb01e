"""Topology summary metrics for a deployed network."""

from __future__ import annotations

import dataclasses
from typing import Dict

import numpy as np

from repro.graphs.properties import average_clustering_edges, degrees_from_edges
from repro.wsn.network import SecureWSN

__all__ = ["TopologySummary", "summarize"]


@dataclasses.dataclass(frozen=True)
class TopologySummary:
    """Snapshot of the secure topology's key health indicators."""

    num_nodes: int
    num_live: int
    num_secure_links: int
    min_degree: int
    mean_degree: float
    isolated_nodes: int
    connected: bool
    clustering: float

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


def summarize(network: SecureWSN, *, with_clustering: bool = True) -> TopologySummary:
    """Compute a :class:`TopologySummary` of the current topology.

    Degree statistics and clustering are taken over the subgraph
    induced by live sensors, the same one :meth:`SecureWSN.is_connected`
    decides on; with no live sensor they are all zero.
    ``with_clustering=False`` skips the ``O(n d^2)`` clustering pass for
    callers inside tight loops.
    """
    n_live, edges = network._live_edges()
    degs = degrees_from_edges(n_live, edges) if n_live else np.zeros(0, dtype=np.int64)
    if not with_clustering:
        clustering = float("nan")
    else:
        clustering = average_clustering_edges(n_live, edges) if n_live else 0.0
    return TopologySummary(
        num_nodes=network.num_nodes,
        num_live=n_live,
        num_secure_links=int(edges.shape[0]),
        min_degree=int(degs.min()) if n_live else 0,
        mean_degree=float(degs.mean()) if n_live else 0.0,
        isolated_nodes=int((degs == 0).sum()),
        connected=network.is_connected(),
        clustering=clustering,
    )
