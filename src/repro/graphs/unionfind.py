"""Disjoint-set union (union-find) and edge-array connectivity.

Figure 1's 180k+ Monte Carlo trials each reduce to one question — "is
this edge list connected on n nodes?" — so this module is the single
hottest code path in the repository.  It works directly on numpy edge
arrays, and its ``_edges`` functions are the package's one answer to
connectivity and component questions.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.exceptions import GraphError
from repro.kernels import get_backend
from repro.utils.validation import check_positive_int

__all__ = [
    "UnionFind",
    "is_connected_edges",
    "count_components_edges",
    "connected_components_labels",
    "is_connected_pair_keys",
    "count_components_pair_keys",
]

# Below this edge count the per-edge Python union-find loop beats the
# vectorized kernel's fixed numpy overhead; above it the kernel wins.
_VECTOR_THRESHOLD = 192


class UnionFind:
    """Union-find with path halving and union by size."""

    __slots__ = ("_parent", "_size", "num_components")

    def __init__(self, num_items: int) -> None:
        num_items = check_positive_int(num_items, "num_items")
        self._parent = list(range(num_items))
        self._size = [1] * num_items
        self.num_components = num_items

    def find(self, x: int) -> int:
        """Return the representative of *x* (with path halving)."""
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of *a* and *b*; return ``True`` if they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        self.num_components -= 1
        return True

    def connected(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def component_sizes(self) -> List[int]:
        """Sizes of all components, descending."""
        sizes = [self._size[i] for i in range(len(self._parent)) if self.find(i) == i]
        return sorted(sizes, reverse=True)


def _validate_edges(num_nodes: int, edges: np.ndarray) -> np.ndarray:
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        return edges.reshape(0, 2)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise GraphError(f"edges must have shape (m, 2), got {edges.shape}")
    if edges.min() < 0 or edges.max() >= num_nodes:
        raise GraphError("edge endpoints outside [0, num_nodes)")
    return edges


def _min_label_components(
    num_nodes: int, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Min-label component kernel (see :mod:`repro.kernels`).

    ``labels[i]`` is the smallest node id in *i*'s component; the
    pointer-jumping implementation is
    :func:`repro.kernels.reference.min_label_components`.
    """
    return get_backend().min_label_components(num_nodes, u, v)


def connected_components_labels(num_nodes: int, edges: np.ndarray) -> np.ndarray:
    """Component label per node (smallest member id) from an edge array."""
    num_nodes = check_positive_int(num_nodes, "num_nodes")
    edges = _validate_edges(num_nodes, edges)
    if edges.size == 0:
        return np.arange(num_nodes, dtype=np.int64)
    return _min_label_components(num_nodes, edges[:, 0], edges[:, 1])


def is_connected_pair_keys(num_nodes: int, pair_keys: np.ndarray) -> bool:
    """Connectivity decision straight from int64 pair keys ``u * n + v``.

    The Monte Carlo sweep hot path: avoids decoding keys into an
    ``(m, 2)`` edge array before deciding connectivity.
    """
    num_nodes = check_positive_int(num_nodes, "num_nodes")
    pair_keys = np.asarray(pair_keys, dtype=np.int64)
    if num_nodes == 1:
        return True
    if pair_keys.size < num_nodes - 1:
        return False
    labels = _min_label_components(
        num_nodes, pair_keys // num_nodes, pair_keys % num_nodes
    )
    # Node 0's label can only ever be 0, so connectivity means all-zero.
    return bool((labels == 0).all())


def count_components_pair_keys(num_nodes: int, pair_keys: np.ndarray) -> int:
    """Number of components straight from int64 pair keys ``u * n + v``."""
    num_nodes = check_positive_int(num_nodes, "num_nodes")
    pair_keys = np.asarray(pair_keys, dtype=np.int64)
    if pair_keys.size == 0:
        return num_nodes
    labels = _min_label_components(
        num_nodes, pair_keys // num_nodes, pair_keys % num_nodes
    )
    return int(np.unique(labels).size)


def is_connected_edges(num_nodes: int, edges: np.ndarray) -> bool:
    """Return whether the edge list spans one connected component.

    A single node with no edges counts as connected; ``num_nodes >= 2``
    with an empty edge list does not.  Small edge lists run the
    early-exiting Python union-find; larger ones the vectorized
    min-label kernel.
    """
    num_nodes = check_positive_int(num_nodes, "num_nodes")
    edges = _validate_edges(num_nodes, edges)
    if num_nodes == 1:
        return True
    if edges.shape[0] < num_nodes - 1:
        return False
    if edges.shape[0] >= _VECTOR_THRESHOLD:
        labels = _min_label_components(num_nodes, edges[:, 0], edges[:, 1])
        return bool((labels == 0).all())
    uf = UnionFind(num_nodes)
    remaining = num_nodes - 1
    for u, v in edges:
        if uf.union(int(u), int(v)):
            remaining -= 1
            if remaining == 0:
                return True
    return False


def count_components_edges(num_nodes: int, edges: np.ndarray) -> int:
    """Return the number of connected components of the edge list."""
    num_nodes = check_positive_int(num_nodes, "num_nodes")
    edges = _validate_edges(num_nodes, edges)
    if edges.shape[0] >= _VECTOR_THRESHOLD:
        labels = _min_label_components(num_nodes, edges[:, 0], edges[:, 1])
        return int(np.unique(labels).size)
    uf = UnionFind(num_nodes)
    for u, v in edges:
        uf.union(int(u), int(v))
    return uf.num_components
