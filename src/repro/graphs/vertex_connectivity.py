"""The exact κ(G) >= k decision on an edge array.

k-connectivity is the property Theorem 1 is about, so the decision
procedure here is *exact*, not heuristic.  :func:`is_k_connected_edges`
is the one entry point (``KernelBackend.k_connected`` delegates here):

* ``k = 1`` → the backend's min-label connectivity union,
* ``k = 2`` → iterative Tarjan biconnectivity
  (:func:`~repro.graphs.biconnectivity.is_biconnected_edges`),
* ``k >= 3`` → an Even-style pivot scan built on Menger's theorem: one
  truncated ISAP max-flow query per candidate pair over the node-split
  digraph, each stopping at ``k`` augmenting paths.

Correctness of the general case rests on the minimal-separator argument:
if ``κ(G) < k`` there is an inclusion-minimal separator ``S`` with
``|S| < k``; fixing any vertex ``v`` (we use one of minimum degree),
either ``v ∉ S`` — then some vertex ``u`` in another component of
``G - S`` is non-adjacent to ``v`` and ``κ(v, u) < k`` — or ``v ∈ S`` —
then ``v`` has neighbors in two different components of ``G - S``
(minimality), and that non-adjacent neighbor pair has local connectivity
``< k``.  Hence checking ``κ(v, u)`` for all ``u`` non-adjacent to ``v``
plus ``κ(u, w)`` for all non-adjacent ``u, w ∈ N(v)`` is sufficient.

Every ``k >= 2`` decision runs on a **Nagamochi–Ibaraki sparse
certificate**: a scan-first forest decomposition (computed by the
active kernel backend, :mod:`repro.kernels`) reduces the edge set to at
most ``k·(n-1)`` edges while preserving the κ >= k decision exactly.
The uncertified deciders (:func:`_pivot_scan_edges`,
``is_biconnected_edges``) called on the full edge array are the
reference the certificate-equivalence corpus checks against.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.graphs.biconnectivity import is_biconnected_edges
from repro.graphs.unionfind import _validate_edges

__all__ = ["is_k_connected_edges"]


class _ScanNetwork:
    """CSR node-split unit-capacity digraph for the pivot scan.

    The Even-style scan runs ~n truncated max-flow queries against
    *one* fixed graph, almost all of them sharing one endpoint (the
    pivot).  This class specializes for exactly that access pattern:

    * CSR arc storage (``start[u] .. start[u+1]``) — tight ``a += 1``
      inner loops, no linked-list ``next`` indirection;
    * undo-log capacity reset — unit capacities mean an augmentation
      flips a handful of arcs, so resetting replays the touched list
      instead of copying all ``2(n + 2m)`` capacities per query;
    * **ISAP with shared sink-rooted labels**: the scan fixes the
      *sink* at ``in(pivot)`` (κ is symmetric, so κ(pivot, u) is
      queried as a flow from ``out(u)`` to ``in(pivot)``) and computes
      exact distance-to-sink labels once by reverse BFS on the pristine
      residual.  Every query then augments along admissible arcs
      (``d[x] == d[y] + 1``) with local relabeling on retreat — no
      per-phase BFS at all.  A relabel budget triggers a *global relabel*
      (exact reverse BFS on the current residual), so worst-case
      behavior degrades to Dinic's phase structure instead of ISAP's
      pathological label creep; exactness is unaffected (flow is
      maximal iff ``d[source]`` reaches the node count).

    Arc layout: node ``v`` (the *in*-copy) carries the internal arc
    ``in(v) -> out(v)`` first, then one residual twin per incident
    edge; node ``v + n`` (the *out*-copy) carries the reverse internal
    arc first, then one forward arc per incident edge.  ``rev[a]`` is
    the residual twin of arc ``a``.
    """

    __slots__ = ("n", "start", "to", "cap", "rev", "touched")

    def __init__(self, num_nodes: int, edge_list) -> None:
        n = self.n = num_nodes
        deg = [0] * n
        for u, v in edge_list:
            deg[u] += 1
            deg[v] += 1
        start = [0] * (2 * n + 1)
        for v in range(n):
            start[v + 1] = start[v] + 1 + deg[v]  # in(v): internal + rev arcs
        for v in range(n):
            start[n + v + 1] = start[n + v] + 1 + deg[v]  # out(v)
        total = start[2 * n]
        to = [0] * total
        cap = [0] * total
        rev = [0] * total
        fill = list(start[: 2 * n])

        def add(a: int, b: int) -> None:
            ia = fill[a]
            fill[a] = ia + 1
            ib = fill[b]
            fill[b] = ib + 1
            to[ia] = b
            cap[ia] = 1
            rev[ia] = ib
            to[ib] = a
            cap[ib] = 0
            rev[ib] = ia

        for v in range(n):
            add(v, v + n)
        for u, v in edge_list:
            add(u + n, v)
            add(v + n, u)
        self.start, self.to, self.cap, self.rev = start, to, cap, rev
        self.touched: list = []  # arcs augmented since the last reset

    def reset(self) -> None:
        """Undo every augmentation since the last reset (unit caps)."""
        cap, rev = self.cap, self.rev
        for a in self.touched:
            cap[a] += 1
            cap[rev[a]] -= 1
        del self.touched[:]

    def sink_labels(self, sink: int) -> list:
        """Exact distance-to-*sink* labels on the current residual.

        Reverse BFS: an arc ``x -> y`` with residual capacity relaxes
        ``d[x]`` from ``d[y] + 1``.  Unreachable nodes get the node
        count ``2n`` (the ISAP "done" label).  Computed once per scan
        on pristine capacities for the shared pivot sink, and by the
        global-relabel fallback on whatever residual is current.
        """
        start, to, cap, rev = self.start, self.to, self.cap, self.rev
        big = 2 * self.n
        d = [big] * big
        d[sink] = 0
        queue = [sink]
        qi = 0
        while qi < len(queue):
            y = queue[qi]
            qi += 1
            dy1 = d[y] + 1
            # Incoming residual arcs x -> y are the twins of y's arcs.
            for a in range(start[y], start[y + 1]):
                if cap[rev[a]]:
                    x = to[a]
                    if d[x] == big:
                        d[x] = dy1
                        queue.append(x)
        return d

    def at_least(self, s: int, t: int, k: int, shared_labels=None) -> bool:
        """Whether κ(s, t) >= k, as a flow ``out(s) -> in(t)``.

        Resets the residual (undo log) first.  *shared_labels* must be
        :meth:`sink_labels` of ``in(t)`` on pristine capacities; without
        it the labels are computed fresh (the neighbor-pair queries).
        """
        self.reset()
        start, to, cap, rev = self.start, self.to, self.cap, self.rev
        big = 2 * self.n
        sink = t
        source = s + self.n
        d = list(shared_labels) if shared_labels is not None else self.sink_labels(t)
        if d[source] >= big:
            return False
        cur = list(start[:big])
        touched = self.touched
        flow = 0
        relabels = 0
        budget = big  # global-relabel trigger; exactness does not depend on it
        node = source
        path: list = []
        while d[source] < big:
            if node == sink:
                for a in path:
                    cap[a] -= 1
                    cap[rev[a]] += 1
                    touched.append(a)
                flow += 1
                if flow >= k:
                    return True
                del path[:]
                node = source
                continue
            a = cur[node]
            end = start[node + 1]
            dn1 = d[node] - 1
            while a < end:
                if cap[a] and d[to[a]] == dn1:
                    break
                a += 1
            cur[node] = a
            if a < end:
                path.append(a)
                node = to[a]
            else:
                # Retreat: relabel to 1 + min residual neighbor label.
                dmin = big - 1
                for a2 in range(start[node], end):
                    if cap[a2]:
                        dv = d[to[a2]]
                        if dv < dmin:
                            dmin = dv
                d[node] = dmin + 1
                cur[node] = start[node]
                relabels += 1
                if node != source:
                    back = path.pop()
                    node = to[rev[back]]
                if relabels > budget:
                    d = self.sink_labels(sink)
                    cur = list(start[:big])
                    relabels = 0
                    del path[:]
                    node = source
        return flow >= k


def _pivot_scan_edges(num_nodes: int, edges: np.ndarray, k: int) -> bool:
    """Even-style pivot scan on an edge array (``k >= 3``, ``n > k``).

    Works straight from the canonical ``(m, 2)`` array: degrees come
    from one ``bincount``, adjacency queries from a pair-key set, and
    the split flow network is a :class:`_ScanNetwork` filled from the
    raw edge list.  All queried
    pairs are non-adjacent and share the pivot endpoint, so every query
    reuses the one network and the one set of sink-rooted ISAP labels
    (κ is symmetric: κ(pivot, u) runs as a flow from ``out(u)`` into
    the fixed sink ``in(pivot)``).
    """
    n = num_nodes
    eu = edges[:, 0]
    ev = edges[:, 1]
    degrees = np.bincount(eu, minlength=n) + np.bincount(ev, minlength=n)
    if int(degrees.min()) < k:
        return False
    pivot = int(degrees.argmin())

    edge_list = edges.tolist()
    net = _ScanNetwork(n, edge_list)
    pivot_labels = net.sink_labels(pivot)
    pair_set = {u * n + v for u, v in edge_list}

    neighbors = set(
        np.concatenate((ev[eu == pivot], eu[ev == pivot])).tolist()
    )
    # Scan low-degree targets first: when the decision fails, the
    # deficient pair usually involves a sparsely connected vertex, so
    # this ordering turns failures into early exits.  (Success still
    # has to scan everything — Menger gives no shortcut there.)
    non_neighbors = [u for u in range(n) if u != pivot and u not in neighbors]
    non_neighbors.sort(key=lambda u: int(degrees[u]))
    for u in non_neighbors:
        if not net.at_least(u, pivot, k, shared_labels=pivot_labels):
            return False
    for u, w in itertools.combinations(sorted(neighbors), 2):
        if u * n + w not in pair_set:
            if not net.at_least(u, w, k):
                return False
    return True


def is_k_connected_edges(
    num_nodes: int,
    edges: np.ndarray,
    k: int,
    *,
    backend=None,
) -> bool:
    """Exact ``κ(G) >= k`` decision straight from an edge array.

    The study compiler's metric cascade already holds candidate edges
    as arrays, and this decision works on them directly.  For ``k >= 2`` the backend's Nagamochi–Ibaraki sparse
    certificate is applied before Tarjan or any flow network runs;
    *backend* pins a kernel backend (ambient resolution otherwise).
    Follows the standard convention that a k-connected graph needs at
    least ``k + 1`` nodes; ``k <= 0`` is vacuously true.

    Raises :class:`~repro.exceptions.GraphError` if *edges* is not an
    ``(m, 2)`` array with endpoints in ``[0, num_nodes)``.
    """
    edges = _validate_edges(num_nodes, edges)
    if k <= 0:
        return True
    if num_nodes < k + 1:
        return False
    if backend is None:
        from repro.kernels import get_backend

        backend = get_backend()
    if k == 1:
        if edges.shape[0] < num_nodes - 1:
            return False
        labels = backend.min_label_components(num_nodes, edges[:, 0], edges[:, 1])
        return bool((labels == 0).all())

    if edges.shape[0] == 0:
        return False
    degrees = np.bincount(edges[:, 0], minlength=num_nodes) + np.bincount(
        edges[:, 1], minlength=num_nodes
    )
    if int(degrees.min()) < k:
        return False

    work = backend.sparse_certificate(num_nodes, edges, k)
    if k == 2:
        return is_biconnected_edges(num_nodes, work)
    return _pivot_scan_edges(num_nodes, work, k)
