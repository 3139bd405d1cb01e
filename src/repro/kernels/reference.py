"""The pure-numpy kernels: min-label union, overlap counting, certificate.

Profiling identified three kernels that dominate every Monte Carlo
workload in this repository:

1. **min-label connectivity union** — component labels of an edge array
   (the connectivity decision of every sweep trial);
2. **candidate-pair overlap counting** — shared-key multiplicities per
   node pair sharing at least ``min_count`` keys, from the key →
   holders incidence (the sampling cost of every deployment);
3. **the exact k-connectivity decision** — Tarjan biconnectivity on
   the simple graph for ``k = 2`` (linear, so no preprocessing pays)
   and, for ``k >= 3``, a Nagamochi–Ibaraki sparse certificate followed
   by a bootstrap closure around one pivot that asks a truncated-ISAP
   flow query only where the closure stalls (the decision cost of
   every ``k >= 2`` sweep).

The module functions implement them:

* :func:`min_label_components` is pointer-jumping min-label
  propagation;
* :func:`overlap_counts` is the inverted-index counter: one sort of
  combined ``key * n + node`` codes, pair-event expansion batched by
  holder count (one stable sort of the group sizes), and a pair-code
  sort plus one run-detection pass that emits only the runs of at
  least ``min_count`` events — the q-composite threshold applied where
  the runs are found, so no all-pairs output is built and filtered;
* :func:`scan_first_certificate` is the Nagamochi–Ibaraki sparse
  certificate: the first k forests of one maximum-adjacency scan.

:class:`ReferenceBackend` bundles them behind the methods every call
site uses (through :func:`repro.kernels.get_backend`).  The contracts
are array-first: only numpy arrays cross them, never Python object
graphs.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

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


#: ``np.triu_indices(m, 1)`` per group size, built on first use.
_TRIU: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}


def _triu_pairs(m: int) -> Tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict upper triangle of an m × m."""
    pairs = _TRIU.get(m)
    if pairs is None:
        pairs = _TRIU[m] = np.triu_indices(m, k=1)
    return pairs


def overlap_counts(
    node_ids: np.ndarray,
    key_ids: np.ndarray,
    num_nodes: int,
    min_count: int = 1,
) -> Tuple[np.ndarray, np.ndarray]:
    """Shared-key count per pair sharing ``min_count`` or more keys.

    One in-place sort of the combined codes ``key * n + node`` groups
    the incidence by key with each key's holders node-ascending, so the
    ``triu`` expansion of a group emits canonical pair codes
    ``a * n + b`` (``a < b``) directly.  Keys are processed in batches
    of equal holder count, so each batch is one ``(num_keys, m)``
    gather plus one ``triu``-index expansion (cached per size) — no
    per-key Python iteration.  Pair multiplicities are a second
    in-place sort plus one run-detection pass that finds the head and
    tail of every run of at least ``min_count`` equal codes; shorter
    runs are never emitted.  Both sorts run on int32 when every code
    fits (the common case), on int64 otherwise; the outputs are int64.
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
    # (Boundaries and run lengths come from boolean masks and plain
    # differences: ``flatnonzero`` of an integer array and ``np.diff``
    # with ``append`` cost several times more at these sizes.)
    change = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    starts = np.concatenate(([0], change, [sorted_keys.size]))
    group_sizes = np.diff(starts)

    # Keys batched by holder count: one stable sort keeps each batch's
    # keys ascending (on the smallest dtype that holds the sizes, which
    # makes it a radix sort); keys held by one node emit no pair.
    size_type = np.min_scalar_type(int(group_sizes.max()))
    by_size = np.argsort(group_sizes.astype(size_type), kind="stable")
    sizes = group_sizes[by_size]
    cuts = np.flatnonzero(sizes[1:] != sizes[:-1]) + 1
    bounds = np.concatenate(([0], cuts, [sizes.size])).tolist()
    pair_chunks = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        m = int(sizes[lo])
        if m < 2:
            continue
        # (hi - lo, m) matrix of holder ids for every key of this size.
        gather = starts[by_size[lo:hi]][:, None] + np.arange(m, dtype=np.int64)
        holders = sorted_nodes[gather]
        ia, ib = _triu_pairs(m)
        pair_chunks.append((holders[:, ia] * n + holders[:, ib]).ravel())

    if not pair_chunks:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    pairs = np.concatenate(pair_chunks)
    pairs.sort()
    # Each run of equal codes is one pair; keep the runs of length at
    # least ``min_count``.  ``edge[i]`` marks a code boundary before
    # ``pairs[i]`` (``edge[0]`` and ``edge[size]`` are the ends), and
    # ``long[i]`` says ``pairs[i] == pairs[i + min_count - 1]``.  A kept
    # run's head is a run start with ``long`` set, and its tail a run end
    # whose code recurs ``min_count - 1`` places back; heads and tails of
    # the kept runs pair up in order.
    span = pairs.size - min_count + 1
    if span <= 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    edge = np.empty(pairs.size + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(pairs[1:], pairs[:-1], out=edge[1:-1])
    long = pairs[min_count - 1 :] == pairs[:span]
    heads = np.flatnonzero(edge[:span] & long)
    tails = np.flatnonzero(edge[min_count:] & long)
    counts = (tails - heads + min_count).astype(np.int64, copy=False)
    return pairs[heads].astype(np.int64), counts


def scan_first_certificate(
    num_nodes: int, edges: np.ndarray, k: int
) -> np.ndarray:
    """Union of the first ``k`` maximum-adjacency forests (one pass).

    Nagamochi–Ibaraki's forest decomposition: vertices are scanned one
    at a time, always one of highest priority ``min(r, k)``, where
    ``r[y]`` counts the already scanned neighbors of ``y`` (``k + 1``
    LIFO buckets, ties toward the smallest id among untouched
    vertices).  Scanning ``x`` walks its edges to unscanned vertices;
    the edge that raises ``r[y]`` to ``i`` joins forest ``F_i``, and
    edges that would raise it past ``k`` are dropped.

    For every ``i <= k`` a vertex with ``r < i`` is scanned only when no
    unscanned vertex has ``r >= i``, so ``F_i`` is a scan-first forest
    of ``G - (F_1 ∪ … ∪ F_{i-1})``: scanning a vertex claims, through
    the residual edges, every unscanned neighbor not yet reached at
    level ``i``.  By Cheriyan–Kao–Thurimella the union
    ``F_1 ∪ … ∪ F_k`` is then k-vertex-connected iff ``G`` is (and keeps
    the components of ``G - S`` for every ``|S| < k``).  Each ``F_i``
    gives every vertex at most one edge and the first vertex scanned
    none, so the result has at most ``k * (num_nodes - 1)`` edges, in
    input row order.  Inputs already within the bound are returned
    as-is.
    """
    m = int(edges.shape[0])
    if m == 0 or k < 1 or m <= k * (num_nodes - 1):
        return edges

    # CSR adjacency with edge ids (each undirected edge appears twice).
    u = edges[:, 0]
    v = edges[:, 1]
    endpoints = np.concatenate((u, v))
    order = np.argsort(endpoints, kind="stable")
    adj_nbr: List[int] = np.concatenate((v, u))[order].tolist()
    eids = np.arange(m, dtype=np.int64)
    adj_eid: List[int] = np.concatenate((eids, eids))[order].tolist()
    indptr_arr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(endpoints, minlength=num_nodes), out=indptr_arr[1:])
    indptr: List[int] = indptr_arr.tolist()

    r = [0] * num_nodes  # scanned neighbors, capped at k
    scanned = [False] * num_nodes
    # buckets[j] stacks vertices whose r reached j; an entry is stale
    # once its vertex is scanned or has moved up.  Bucket 0 pops the
    # smallest untouched id first.
    buckets: List[List[int]] = [list(range(num_nodes - 1, -1, -1))]
    buckets.extend([] for _ in range(k))
    kept: List[int] = []
    top = 0
    for _ in range(num_nodes):
        while True:
            stack = buckets[top]
            while stack:
                x = stack.pop()
                if not scanned[x] and r[x] == top:
                    break
            else:
                top -= 1
                continue
            break
        scanned[x] = True
        for idx in range(indptr[x], indptr[x + 1]):
            y = adj_nbr[idx]
            if scanned[y]:
                continue
            level = r[y]
            if level == k:
                continue
            level += 1
            r[y] = level
            kept.append(adj_eid[idx])
            buckets[level].append(y)
            if level > top:
                top = level
    keep = np.zeros(m, dtype=bool)
    keep[kept] = True
    return edges[keep]


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
        self,
        node_ids: np.ndarray,
        key_ids: np.ndarray,
        num_nodes: int,
        min_count: int = 1,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Shared-key count per node pair sharing at least ``min_count`` keys.

        Input is the flattened incidence (``node_ids[i]`` holds
        ``key_ids[i]``; both int64, non-empty; ``0 <= node_ids <
        num_nodes`` and ``key_ids >= 0``, as key ids are pool indices;
        rows are unique — a node holds a key at most once, as key rings
        are subsets; ``min_count`` is an int >= 1).  Returns
        ``(pair_keys, counts)`` where ``pair_keys`` encodes each
        unordered pair ``(a, b), a < b`` sharing at least ``min_count``
        keys as ``a * num_nodes + b``, sorted ascending, and ``counts``
        is the number of shared keys; both outputs are int64.  Only runs
        of at least ``min_count`` pair events are emitted, so pairs
        sharing fewer keys (zero included) are absent, and the default
        of 1 gives every co-holding pair.
        """
        return overlap_counts(node_ids, key_ids, num_nodes, min_count)

    def sparse_certificate(
        self, num_nodes: int, edges: np.ndarray, k: int
    ) -> np.ndarray:
        """Nagamochi–Ibaraki sparse certificate for the κ >= k decision.

        Returns a subset of the ``(m, 2)`` int64 canonical edge array
        with at most ``k * (num_nodes - 1)`` edges such that the
        certificate subgraph is k-vertex-connected iff the input graph
        is: the first ``k`` forests of one maximum-adjacency scan
        (:func:`scan_first_certificate`).  Row order of surviving edges
        is preserved; inputs already at or below the bound are returned
        unchanged.  The exact decision calls it for ``k >= 3`` only.
        """
        return scan_first_certificate(num_nodes, edges, k)

    def k_connected(self, num_nodes: int, edges: np.ndarray, k: int) -> bool:
        """Exact decision: is the edge array's graph k-vertex-connected?

        Delegates to
        :func:`repro.graphs.vertex_connectivity.is_k_connected_edges`,
        which runs the min-label union for ``k = 1``, Tarjan
        biconnectivity on the simple graph for ``k = 2`` and, for
        ``k >= 3``, :meth:`sparse_certificate` followed by the
        bootstrap-closure scan, which walks the uncertified edges and
        runs its truncated-ISAP flow queries on the certificate.
        """
        # Imported at call time: repro.graphs imports this package.
        from repro.graphs.vertex_connectivity import is_k_connected_edges

        return is_k_connected_edges(num_nodes, edges, k)
