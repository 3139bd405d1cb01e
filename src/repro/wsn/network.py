"""The secure-WSN façade: scheme ∘ channel → topology ``G_{n,q}``.

:class:`SecureWSN` deploys ``n`` sensors with a key predistribution
scheme and a channel model, then materializes the secure topology: the
edge ``{i, j}`` exists iff the rings share at least ``q`` keys *and* the
channel is on — exactly ``G_q(n,K,P) ∩ G(n,p)`` of the paper's Eq. (1)
when the channel is :class:`~repro.channels.onoff.OnOffChannel`.

The class keeps the intermediate layers inspectable (key graph, channel
mask, per-sensor rings) because the experiments need them, and supports
in-place node failure, which re-derives the surviving topology.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.channels.disk import DiskChannel
from repro.channels.onoff import OnOffChannel
from repro.exceptions import ParameterError
from repro.graphs.unionfind import is_connected_edges
from repro.graphs.vertex_connectivity import is_k_connected_edges
from repro.keygraphs.schemes import QCompositeScheme
from repro.params import QCompositeParams
from repro.utils.rng import RandomState, spawn_generators
from repro.utils.validation import check_positive_int
from repro.wsn.sensor import Sensor

__all__ = ["SecureWSN"]


class SecureWSN:
    """A deployed secure wireless sensor network.

    Parameters
    ----------
    num_nodes:
        Number of sensors to deploy.
    scheme:
        Key predistribution scheme (ring assignment + link rule).
    channel:
        :class:`~repro.channels.onoff.OnOffChannel` or
        :class:`~repro.channels.disk.DiskChannel`; defaults to a perfect
        channel (``p = 1``).
    seed:
        Root seed; ring assignment and channel state draw from
        independent spawned streams.
    """

    def __init__(
        self,
        num_nodes: int,
        scheme: QCompositeScheme,
        channel: Optional[Union[OnOffChannel, DiskChannel]] = None,
        seed: RandomState = None,
    ) -> None:
        self.num_nodes = check_positive_int(num_nodes, "num_nodes")
        if self.num_nodes < 2:
            raise ParameterError("a network needs at least 2 sensors")
        channel = OnOffChannel(1.0) if channel is None else channel
        if not isinstance(channel, (OnOffChannel, DiskChannel)):
            raise ParameterError(
                f"channel must be an OnOffChannel or a DiskChannel, got {channel!r}"
            )
        self.scheme = scheme
        self.channel = channel

        ring_rng, channel_rng = spawn_generators(seed, 2)
        self.rings = scheme.assign_rings(self.num_nodes, ring_rng)
        # Key-graph candidate edges (canonical, ascending) and the channel
        # state of each one, drawn once per deployment.
        self._key_edges = scheme.key_graph_edges(self.rings)
        self._channel_mask, positions = channel.sample_mask(
            self.num_nodes, self._key_edges, channel_rng
        )
        self._secure_edges_all = self._key_edges[self._channel_mask]

        self.sensors: List[Sensor] = [
            Sensor(node_id=i, ring=self.rings[i]) for i in range(self.num_nodes)
        ]
        if positions is not None:
            for sensor, (x, y) in zip(self.sensors, positions):
                sensor.position = (float(x), float(y))

    # -- topology ---------------------------------------------------------

    @property
    def key_graph_edges(self) -> np.ndarray:
        """Edges of the key graph ``G_q`` (ignores channels and failures)."""
        return self._key_edges

    @property
    def channel_mask(self) -> np.ndarray:
        """Channel state (on = ``True``) of each row of :attr:`key_graph_edges`."""
        return self._channel_mask

    def secure_edges(self) -> np.ndarray:
        """Current secure topology edges (channel on ∧ both endpoints alive)."""
        edges = self._secure_edges_all
        dead = [s.node_id for s in self.sensors if not s.alive]
        if not dead:
            return edges
        dead_arr = np.array(dead, dtype=np.int64)
        keep = ~(
            np.isin(edges[:, 0], dead_arr) | np.isin(edges[:, 1], dead_arr)
        )
        return edges[keep]

    # -- connectivity -------------------------------------------------------

    def _live_edges(self) -> Tuple[int, np.ndarray]:
        """Live sensor count and the secure edges relabeled onto ``0..live-1``.

        Relabeling keeps node order, so canonical ``u < v`` rows stay
        canonical; with every sensor alive the edges are returned as is.
        """
        alive = [s.node_id for s in self.sensors if s.alive]
        edges = self.secure_edges()
        if len(alive) == self.num_nodes:
            return self.num_nodes, edges
        relabel = np.full(self.num_nodes, -1, dtype=np.int64)
        relabel[alive] = np.arange(len(alive), dtype=np.int64)
        return len(alive), relabel[edges]

    def is_connected(self) -> bool:
        """Can every pair of live sensors communicate securely (k = 1)?

        Failed sensors are excluded from the requirement: connectivity is
        evaluated on the subgraph induced by live sensors.  A single live
        sensor (or none) counts as connected here, whereas
        :meth:`is_k_connected` follows κ's ``n > k`` convention and
        returns ``False`` for ``k = 1`` on one live sensor.
        """
        n_live, edges = self._live_edges()
        if n_live <= 1:
            return True
        return is_connected_edges(n_live, edges)

    def is_k_connected(self, k: int) -> bool:
        """Exact k-connectivity of the current secure topology.

        Evaluated on the full node set when all sensors are alive, or on
        the live-induced subgraph otherwise.
        """
        n_live, edges = self._live_edges()
        return is_k_connected_edges(n_live, edges, k)

    # -- link-level API -------------------------------------------------------

    def can_communicate(self, a: int, b: int) -> bool:
        """Secure one-hop link between sensors *a* and *b* right now?"""
        self._check_node(a)
        self._check_node(b)
        if a == b:
            raise ParameterError("a and b must be distinct sensors")
        if not (self.sensors[a].alive and self.sensors[b].alive):
            return False
        # Key edges are canonical and ascending: find u's rows, then v.
        u, v = min(a, b), max(a, b)
        lo, hi = np.searchsorted(self._key_edges[:, 0], [u, u + 1])
        row = int(lo + np.searchsorted(self._key_edges[lo:hi, 1], v))
        return (
            row < hi
            and int(self._key_edges[row, 1]) == v
            and bool(self._channel_mask[row])
        )

    def link_key(self, a: int, b: int) -> Optional[bytes]:
        """Link key for a usable secure link, else ``None``."""
        if not self.can_communicate(a, b):
            return None
        return self.scheme.link_key(self.rings[a], self.rings[b])

    # -- failures ----------------------------------------------------------

    def fail_nodes(self, node_ids: Sequence[int]) -> None:
        """Mark sensors as failed (battery depletion, capture, ...)."""
        for node in node_ids:
            self._check_node(int(node))
            self.sensors[int(node)].alive = False

    def restore_all(self) -> None:
        """Revive every sensor (fresh analysis on the same deployment)."""
        for sensor in self.sensors:
            sensor.alive = True

    def live_count(self) -> int:
        """Number of live sensors."""
        return sum(1 for s in self.sensors if s.alive)

    # -- misc -------------------------------------------------------------

    @classmethod
    def from_params(
        cls, params: QCompositeParams, seed: RandomState = None
    ) -> "SecureWSN":
        """Deploy directly from a :class:`QCompositeParams` bundle."""
        scheme = QCompositeScheme(
            params.key_ring_size, params.pool_size, params.overlap
        )
        channel = OnOffChannel(params.channel_prob)
        return cls(params.num_nodes, scheme, channel, seed)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ParameterError(f"sensor id {node} outside [0, {self.num_nodes})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SecureWSN(n={self.num_nodes}, scheme={self.scheme!r}, "
            f"channel={self.channel!r}, live={self.live_count()})"
        )
