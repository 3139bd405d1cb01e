"""Articulation points and biconnectivity (Tarjan, iterative, array-first).

``k = 2`` connectivity checks run inside Monte Carlo loops, so the
classical recursive Hopcroft–Tarjan DFS is implemented iteratively to
avoid Python's recursion limit at ``n = 1000+`` and to keep constant
factors low.  Like :func:`~repro.graphs.unionfind.is_connected_edges`,
both entry points take ``(num_nodes, edges)`` straight from an
``(m, 2)`` edge array and walk the CSR of
:func:`~repro.graphs.traversal.csr_adjacency`.
"""

from __future__ import annotations

from typing import Iterable, List, Set, Tuple

import numpy as np

from repro.graphs.traversal import csr_adjacency

__all__ = ["articulation_points_edges", "is_biconnected_edges"]


def _lowlink(
    num_nodes: int, edges: np.ndarray, roots: Iterable[int]
) -> Tuple[Set[int], List[int]]:
    """Low-link DFS from every still-unvisited node of *roots*.

    Returns ``(cut vertices found, discovery times)``; a discovery time
    of ``-1`` marks a node no root reached.  The tree edge back to a
    node's parent is not skipped: it only lowers ``low[u]`` to
    ``disc[parent]``, which leaves the ``low[u] >= disc[parent]`` cut
    test (and parallel edges) unaffected.
    """
    n = num_nodes
    indptr, nbrs_arr = csr_adjacency(n, edges)
    nbrs = nbrs_arr.tolist()
    start = indptr.tolist()
    nxt = start[:-1]  # next unscanned CSR slot per node
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    cuts: Set[int] = set()
    timer = 0
    for root in roots:
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        stack = [root]
        while stack:
            u = stack[-1]
            for i in range(nxt[u], start[u + 1]):
                v = nbrs[i]
                if disc[v] == -1:
                    nxt[u] = i + 1
                    parent[v] = u
                    disc[v] = low[v] = timer
                    timer += 1
                    stack.append(v)
                    break
                if disc[v] < low[u]:
                    low[u] = disc[v]
            else:
                stack.pop()
                p = parent[u]
                if p == -1:
                    continue
                if low[u] < low[p]:
                    low[p] = low[u]
                if p == root:
                    root_children += 1
                elif low[u] >= disc[p]:
                    cuts.add(p)
        if root_children >= 2:
            cuts.add(root)
    return cuts, disc


def articulation_points_edges(num_nodes: int, edges: np.ndarray) -> Set[int]:
    """Return the articulation (cut) vertices of the edge array's graph.

    Works per connected component; an articulation point of any
    component is reported.  Runs in ``O(n + m)``.
    """
    return _lowlink(num_nodes, edges, range(num_nodes))[0]


def is_biconnected_edges(num_nodes: int, edges: np.ndarray) -> bool:
    """Return whether the edge array's graph is 2-connected (``κ >= 2``).

    Follows the standard convention requiring ``n >= 3``: ``K_2`` is
    1-connected only.  Equivalent to "one DFS from node 0 reaches every
    node and finds no articulation point" for ``n >= 3``.
    """
    if num_nodes < 3:
        return False
    cuts, disc = _lowlink(num_nodes, edges, (0,))
    return not cuts and -1 not in disc
