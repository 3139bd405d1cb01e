"""CSR adjacency from an edge array, and array-first shortest paths.

:func:`csr_adjacency` is the one adjacency builder under
:mod:`repro.graphs`: Tarjan's low-link DFS, the BFS of
:func:`shortest_path_edges` and
:func:`~repro.graphs.properties.average_clustering_edges` all walk the
``(indptr, nbrs)`` pair it returns.  Connectivity and component
questions need no adjacency at all; the ``_edges`` functions of
:mod:`repro.graphs.unionfind` answer them.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import GraphError
from repro.graphs.unionfind import _validate_edges
from repro.utils.validation import check_positive_int

__all__ = ["csr_adjacency", "shortest_path_edges"]


def csr_adjacency(num_nodes: int, edges: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """CSR adjacency ``(indptr, nbrs)`` of an ``(m, 2)`` edge array.

    Node ``u``'s neighbors are ``nbrs[indptr[u]:indptr[u + 1]]``, so
    ``np.diff(indptr)`` is the degree vector.  One stable ``argsort`` of
    the flattened endpoints plus one ``bincount`` builds it; for a
    canonical (``u < v``, sorted) edge array every neighbor list comes
    out ascending.
    """
    edges = _validate_edges(num_nodes, edges)
    heads = edges.ravel()
    order = np.argsort(heads, kind="stable")
    nbrs = edges[:, ::-1].ravel()[order]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(heads, minlength=num_nodes), out=indptr[1:])
    return indptr, nbrs


def shortest_path_edges(
    num_nodes: int, edges: np.ndarray, source: int, target: int
) -> Optional[List[int]]:
    """Shortest source→target node path, or ``None`` if disconnected.

    BFS over :func:`csr_adjacency` with predecessor reconstruction; the
    path includes both endpoints.  Neighbors are scanned in CSR order,
    so ties between equally short paths break the same way every call.
    Used by the WSN routing layer to exhibit an actual secure
    communication path between two sensors.
    """
    num_nodes = check_positive_int(num_nodes, "num_nodes")
    for name, node in (("source", source), ("target", target)):
        if not 0 <= node < num_nodes:
            raise GraphError(f"{name} {node} outside [0, {num_nodes})")
    indptr, nbrs_arr = csr_adjacency(num_nodes, edges)
    if source == target:
        return [source]
    start = indptr.tolist()
    nbrs = nbrs_arr.tolist()
    prev = [-1] * num_nodes
    prev[source] = source
    queue = [source]
    for u in queue:
        for v in nbrs[start[u] : start[u + 1]]:
            if prev[v] == -1:
                prev[v] = u
                if v == target:
                    path = [v]
                    while path[-1] != source:
                        path.append(prev[path[-1]])
                    path.reverse()
                    return path
                queue.append(v)
    return None
