"""The pure-numpy kernels: min-label union, overlap counting, certificate.

Profiling identified three kernels that dominate every Monte Carlo
workload in this repository:

1. **min-label connectivity union** — component labels of an edge array
   (the connectivity decision of every sweep trial);
2. **candidate-pair overlap counting** — shared-key multiplicities per
   co-holding node pair from the key → holders incidence (the sampling
   cost of every deployment);
3. **the exact k-connectivity decision** — Tarjan biconnectivity for
   ``k = 2`` and, for ``k >= 3``, a bootstrap closure around one pivot
   that asks a truncated-ISAP flow query only where the closure stalls,
   each after a Nagamochi–Ibaraki sparse-certificate preprocessing pass
   (the decision cost of every ``k >= 2`` sweep).

The module functions implement them:

* :func:`min_label_components` is pointer-jumping min-label
  propagation;
* :func:`overlap_counts` is the inverted-index counter: one sort of
  combined ``key * n + node`` codes, group-size-batched pair-event
  expansion, and a pair-code sort plus run-length count;
* :func:`scan_first_certificate` is the Nagamochi–Ibaraki sparse
  certificate via k rounds of scan-first (BFS) spanning forests.

:class:`ReferenceBackend` bundles them behind the methods every call
site uses (through :func:`repro.kernels.get_backend`).  The contracts
are array-first: only numpy arrays cross them, never Python object
graphs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "ReferenceBackend",
    "min_label_components",
    "overlap_counts",
    "scan_first_certificate",
]


def min_label_components(
    num_nodes: int, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Array-based union-find: minimum-label propagation with pointer jumping.

    ``labels[i]`` converges to the smallest node id in *i*'s component.
    Each outer round hooks the larger endpoint label onto the smaller
    (``np.minimum.at``) and then compresses paths to a fixpoint by
    repeated ``labels[labels]`` jumping, so the whole computation is
    O(m + n) numpy work per round with O(log n) rounds in practice —
    no per-edge Python iteration.
    """
    labels = np.arange(num_nodes, dtype=np.int64)
    if u.size == 0:
        return labels
    while True:
        lu = labels[u]
        lv = labels[v]
        active = lu != lv
        if not active.any():
            return labels
        np.minimum.at(
            labels,
            np.maximum(lu[active], lv[active]),
            np.minimum(lu[active], lv[active]),
        )
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped


def overlap_counts(
    node_ids: np.ndarray, key_ids: np.ndarray, num_nodes: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Shared-key count per co-holding pair via the inverted key index.

    One in-place sort of the combined codes ``key * n + node`` groups
    the incidence by key with each key's holders node-ascending, so the
    ``triu`` expansion of a group emits canonical pair codes
    ``a * n + b`` (``a < b``) directly.  Keys are processed in batches
    of equal holder count, so each batch is one ``(num_keys, m)``
    gather plus one ``triu``-index expansion — no per-key Python
    iteration.  Pair multiplicities are a second in-place sort plus a
    run-length count.  Both sorts run on int32 when every code fits
    (the common case), on int64 otherwise; the outputs are int64.
    """
    n = int(num_nodes)
    narrow = (
        int(key_ids.min()) >= 0
        and (int(key_ids.max()) + 1) * n < 2**31
        and n * n < 2**31
    )
    width = np.int32 if narrow else np.int64

    codes = key_ids.astype(width)
    codes *= n
    codes += node_ids.astype(width, copy=False)
    codes.sort()
    sorted_keys = codes // n
    sorted_nodes = codes - sorted_keys * n

    # Group boundaries: starts[i] .. starts[i+1] hold one key's holders.
    change = np.flatnonzero(np.diff(sorted_keys)) + 1
    starts = np.concatenate(([0], change, [sorted_keys.size]))
    group_sizes = np.diff(starts)

    pair_chunks = []
    for m in np.unique(group_sizes):
        m = int(m)
        if m < 2:
            continue
        sel = np.flatnonzero(group_sizes == m)
        # (len(sel), m) matrix of holder ids for every key of this size.
        gather = starts[sel][:, None] + np.arange(m, dtype=np.int64)[None, :]
        holders = sorted_nodes[gather]
        ia, ib = np.triu_indices(m, k=1)
        pair_chunks.append((holders[:, ia] * n + holders[:, ib]).ravel())

    if not pair_chunks:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    pairs = np.concatenate(pair_chunks)
    pairs.sort()
    first = np.empty(pairs.size, dtype=bool)
    first[0] = True
    np.not_equal(pairs[1:], pairs[:-1], out=first[1:])
    run_starts = np.flatnonzero(first)
    counts = np.diff(run_starts, append=pairs.size)
    return pairs[run_starts].astype(np.int64), counts.astype(np.int64)


def scan_first_certificate(
    num_nodes: int, edges: np.ndarray, k: int
) -> np.ndarray:
    """Union of ``k`` successive scan-first-search spanning forests.

    ``F_i`` is a BFS spanning forest of ``G - (F_1 ∪ … ∪ F_{i-1})``
    (BFS is a scan-first search: scanning a vertex visits every still
    unvisited residual neighbor).  By Cheriyan–Kao–Thurimella the union
    ``F_1 ∪ … ∪ F_k`` is k-vertex-connected iff ``G`` is, and it has at
    most ``k * (num_nodes - 1)`` edges — so the flow queries of the
    exact decision run on O(k·n) edges no matter how dense ``G`` was.
    Inputs already within the bound are returned as-is.
    """
    m = int(edges.shape[0])
    if m == 0 or k < 1 or m <= k * (num_nodes - 1):
        return edges

    # CSR adjacency with edge ids (each undirected edge appears twice).
    u = edges[:, 0]
    v = edges[:, 1]
    endpoints = np.concatenate((u, v))
    order = np.argsort(endpoints, kind="stable")
    adj_nbr = np.concatenate((v, u))[order].tolist()
    eids = np.arange(m, dtype=np.int64)
    adj_eid = np.concatenate((eids, eids))[order].tolist()
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(endpoints, minlength=num_nodes), out=indptr[1:])
    indptr = indptr.tolist()

    used = [False] * m
    remaining = m
    for _ in range(k):
        if remaining == 0:
            break
        visited = [False] * num_nodes
        for root in range(num_nodes):
            if visited[root]:
                continue
            visited[root] = True
            queue = [root]
            qi = 0
            while qi < len(queue):
                x = queue[qi]
                qi += 1
                for idx in range(indptr[x], indptr[x + 1]):
                    w = adj_nbr[idx]
                    if visited[w]:
                        continue
                    e = adj_eid[idx]
                    if used[e]:
                        continue
                    visited[w] = True
                    used[e] = True
                    remaining -= 1
                    queue.append(w)
    return edges[np.asarray(used, dtype=bool)]


class ReferenceBackend:
    """The kernel set: the contracts every call site relies on."""

    #: Name stamped into benchmark host records.
    name = "reference"

    def min_label_components(
        self, num_nodes: int, u: np.ndarray, v: np.ndarray
    ) -> np.ndarray:
        """Component label per node for the edge list ``(u[i], v[i])``.

        ``labels[i]`` is the smallest node id in *i*'s component (so
        connectivity is ``(labels == 0).all()`` and the number of
        components is ``np.unique(labels).size``).  Endpoint arrays are
        int64 and may be empty.
        """
        return min_label_components(num_nodes, u, v)

    def overlap_counts(
        self, node_ids: np.ndarray, key_ids: np.ndarray, num_nodes: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Shared-key count per co-holding node pair.

        Input is the flattened incidence (``node_ids[i]`` holds
        ``key_ids[i]``; both int64, non-empty; ``0 <= node_ids <
        num_nodes`` and ``key_ids >= 0``, as key ids are pool indices;
        rows are unique — a node holds a key at most once, as key rings
        are subsets).  Returns ``(pair_keys, counts)`` where
        ``pair_keys`` encodes each unordered pair ``(a, b), a < b``
        sharing at least one key as ``a * num_nodes + b``, sorted
        ascending, and ``counts`` is the number of shared keys; both
        outputs are int64.  Pairs sharing zero keys are absent.
        """
        return overlap_counts(node_ids, key_ids, num_nodes)

    def sparse_certificate(
        self, num_nodes: int, edges: np.ndarray, k: int
    ) -> np.ndarray:
        """Nagamochi–Ibaraki sparse certificate for the κ >= k decision.

        Returns a subset of the ``(m, 2)`` int64 canonical edge array
        with at most ``k * (num_nodes - 1)`` edges such that the
        certificate subgraph is k-vertex-connected iff the input graph
        is.  Row order of surviving edges is preserved; inputs already
        at or below the bound are returned unchanged.
        """
        return scan_first_certificate(num_nodes, edges, k)

    def k_connected(self, num_nodes: int, edges: np.ndarray, k: int) -> bool:
        """Exact decision: is the edge array's graph k-vertex-connected?

        Delegates to
        :func:`repro.graphs.vertex_connectivity.is_k_connected_edges`,
        which runs the min-label union for ``k = 1`` and, for ``k >= 2``,
        :meth:`sparse_certificate` followed by Tarjan biconnectivity
        (``k = 2``) or the bootstrap-closure scan, which walks the
        uncertified edges and runs its truncated-ISAP flow queries on
        the certificate (``k >= 3``).
        """
        # Imported at call time: repro.graphs imports this package.
        from repro.graphs.vertex_connectivity import is_k_connected_edges

        return is_k_connected_edges(num_nodes, edges, k)
