"""Secure multi-hop routing over the WSN topology.

"Connectivity means that any two sensors can find a path in between for
secure communication" (paper, abstract) — this module exhibits those
paths.  Each hop of a route is a usable secure link, so relaying along
the route gives end-to-end secure communication; the per-hop link keys
are available for the examples that demonstrate actual payload
protection.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.exceptions import ParameterError
from repro.graphs.traversal import shortest_path_edges
from repro.wsn.network import SecureWSN

__all__ = ["SecureRoute", "find_secure_route", "route_stretch"]


@dataclasses.dataclass(frozen=True)
class SecureRoute:
    """A secure multi-hop route between two sensors.

    ``hops[i]``/``hops[i+1]`` is the i-th secure link; ``link_keys``
    aligns with those links.
    """

    hops: List[int]
    link_keys: List[bytes]

    @property
    def length(self) -> int:
        """Number of links on the route."""
        return max(0, len(self.hops) - 1)


def find_secure_route(
    network: SecureWSN, source: int, target: int
) -> Optional[SecureRoute]:
    """Shortest secure route from *source* to *target*, or ``None``.

    Routes only traverse live sensors and on-channels (i.e. edges of the
    current secure topology).  Among equally short routes the hop order
    is deterministic: the BFS scans neighbors in ascending id order.
    The returned route carries the derived per-hop link keys.
    """
    if not 0 <= source < network.num_nodes:
        raise ParameterError(f"source {source} outside network")
    if not 0 <= target < network.num_nodes:
        raise ParameterError(f"target {target} outside network")
    if not network.sensors[source].alive or not network.sensors[target].alive:
        return None

    path = shortest_path_edges(network.num_nodes, network.secure_edges(), source, target)
    if path is None:
        return None
    keys: List[bytes] = []
    for a, b in zip(path, path[1:]):
        key = network.scheme.link_key(network.rings[a], network.rings[b])
        if key is None:  # pragma: no cover - topology edges always share >= q keys
            return None
        keys.append(key)
    return SecureRoute(hops=path, link_keys=keys)


def route_stretch(network: SecureWSN, source: int, target: int) -> Optional[float]:
    """Ratio of secure-route length to key-graph route length.

    Measures how much the unreliable channels lengthen communication
    paths relative to full visibility (paper Section IX's notion).  Both
    routes must exist; otherwise ``None``.
    """
    secure = find_secure_route(network, source, target)
    if secure is None:
        return None
    baseline = shortest_path_edges(
        network.num_nodes, network.key_graph_edges, source, target
    )
    if baseline is None or len(baseline) <= 1:
        return None
    return secure.length / (len(baseline) - 1)
