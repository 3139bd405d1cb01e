"""The exact κ(G) >= k decision on an edge array.

k-connectivity is the property Theorem 1 is about, so the decision
procedure here is *exact*, not heuristic.  :func:`is_k_connected_edges`
is the one entry point (``ReferenceBackend.k_connected`` delegates
here):

* ``k = 1`` → the min-label connectivity union,
* ``k = 2`` → iterative Tarjan biconnectivity
  (:func:`~repro.graphs.biconnectivity.is_biconnected_edges`),
* ``k >= 3`` → a bootstrap-closure scan around one pivot vertex,
  backed by truncated ISAP max-flow queries over the node-split
  digraph, each stopping at ``k`` augmenting paths (Menger).

Every ``k >= 2`` decision first collapses the input to distinct
canonical ``(u < v)`` pairs without self-loops, the simple graph G.
At ``k = 2`` Tarjan runs on G itself: it is linear, so a certificate
would only add work.  At ``k >= 3`` the closure gets the
**Nagamochi–Ibaraki sparse certificate** H: the first ``k`` forests of
one maximum-adjacency scan (:mod:`repro.kernels`), at most ``k·(n-1)``
edges, each a scan-first forest of what the earlier ones leave of G.
Scan-first forests keep more than the global decision: for every
vertex set ``S`` with ``|S| < k``, ``G - S`` and ``H - S`` have the
same connected components, so ``min(κ(x, y), k)`` is the same in G and
H for every pair.

**The closure lemma** (``k >= 3``).  Fix a pivot ``v`` and grow a set
``A`` from ``{v} ∪ N(v)``, absorbing every vertex with at least ``k``
distinct neighbors in ``A``.  For any separator ``S`` with ``|S| < k``
and ``v ∉ S``, every vertex of ``A`` lies in ``S`` or in ``v``'s
component of ``G - S``: true for the seed, and a vertex with ``k``
neighbors in ``A`` has one outside ``S``, hence in ``v``'s component.
When absorption stalls, one flow query ``κ(v, x) >= k`` for the
outside vertex ``x`` with the most neighbors in ``A`` decides the
round: ``x`` is non-adjacent to ``v``, so a "no" is the exact answer
``κ < k``; a "yes" means no such ``S`` separates ``x`` from ``v``, so
``x`` joins ``A``.  Once ``A`` covers every vertex, no separator of
size ``< k`` avoids ``v``.  A minimal one through ``v`` leaves two
neighbors of ``v`` in different components, so the scan ends with
``κ(u, w) >= k`` for every non-adjacent pair ``u, w ∈ N(v)``.  On the
graphs the studies decide (κ >= 3 just above the degree filter) this
takes a handful of flow queries where a scan of every non-neighbor of
the pivot took ~n.

**Why the G/H split is exact.**  The closure walks the pre-certificate
edges G (more neighbors in ``A``, so fewer stalls); the pivot (minimum
degree in H), every flow query and the neighbor pairs run on H (fewer
arcs, fewer pairs).  The closure only ever concludes "no separator of
size ``< k`` avoids ``v``", which transfers between G and H because
their components agree after removing any such ``S``; a flow "yes" on
H is a "yes" on G ⊇ H; a flow "no" on H between non-adjacent vertices
gives ``κ(H) < k``, and H is a certificate, so ``κ(G) < k``.  The
uncertified closure (:func:`_closure_scan_edges` with G as its own
certificate) is the reference the certificate-equivalence corpus
checks against.

**Pristine labels in closed form.**  ISAP needs exact
distance-to-sink labels on the unused network.  In the split digraph
(internal arc ``in(x) → out(x)``, edge arcs ``out(x) → in(y)``) they
follow from one BFS on H: with ``dist`` the hop distance to ``t``,
``d[in x] = 2·dist(x, t)``, ``d[out x] = 2·dist(x, t) - 1``,
``d[out t] = 3`` (when ``t`` has a neighbor), and ``2n`` for every
unreachable node.  The residual walk :meth:`_ScanNetwork.sink_labels`
remains for ISAP's global relabel, which runs on a used network.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.graphs.biconnectivity import is_biconnected_edges
from repro.graphs.traversal import csr_adjacency
from repro.graphs.unionfind import _validate_edges
from repro.kernels import get_backend

__all__ = ["is_k_connected_edges"]


class _ScanNetwork:
    """CSR node-split unit-capacity digraph for the closure scan.

    The scan runs a few truncated max-flow queries against *one* fixed
    graph, most of them sharing one endpoint (the pivot).  This class
    specializes for exactly that access pattern:

    * CSR arc storage (``start[u] .. start[u+1]``), laid out with numpy
      from the graph's :func:`~repro.graphs.traversal.csr_adjacency` —
      tight ``a += 1`` inner loops, no linked-list indirection;
    * undo-log capacity reset — unit capacities mean an augmentation
      flips a handful of arcs, so resetting replays the touched list
      instead of copying all ``2(n + 2m)`` capacities per query;
    * **ISAP with shared sink-rooted labels**: κ is symmetric, so a
      query runs as a flow from ``out(s)`` into ``in(t)`` with ``t``
      the shared endpoint, and the exact pristine labels of that sink
      (:meth:`pristine_labels`, one BFS) serve every query into it.
      Queries augment along admissible arcs (``d[x] == d[y] + 1``) with
      local relabeling on retreat — no per-phase BFS at all.  A relabel
      budget triggers a *global relabel* (exact reverse BFS on the
      current residual, :meth:`sink_labels`), so worst-case behavior
      degrades to Dinic's phase structure instead of ISAP's
      pathological label creep; exactness is unaffected (flow is
      maximal iff ``d[source]`` reaches the node count).

    Arc layout: node ``v`` (the *in*-copy) carries the internal arc
    ``in(v) -> out(v)`` first, then one residual twin per incident
    edge; node ``v + n`` (the *out*-copy) carries the reverse internal
    arc first, then one forward arc per incident edge, both in CSR
    neighbor order.  ``rev[a]`` is the residual twin of arc ``a``.
    """

    __slots__ = ("n", "indptr", "nbrs", "start", "to", "cap", "rev", "touched")

    def __init__(self, num_nodes: int, edges: np.ndarray) -> None:
        n = self.n = num_nodes
        indptr, nbrs = csr_adjacency(n, edges)
        m2 = nbrs.size  # 2m directed slots
        deg = np.diff(indptr)
        row = np.repeat(np.arange(n, dtype=np.int64), deg)
        # Slot s holds row[s] -> nbrs[s] and its twin the reverse pair;
        # the pair keys are distinct, so the twin is the slot of equal
        # rank among the reversed keys.
        twin = np.empty(m2, dtype=np.int64)
        twin[np.argsort(nbrs * n + row)] = np.argsort(row * n + nbrs)
        nodes = np.arange(n, dtype=np.int64)
        in_start = nodes + indptr[:-1]
        out_start = in_start + (n + m2)
        total = 2 * (n + m2)
        in_arc = np.arange(1, m2 + 1, dtype=np.int64) + row  # in(x) -> out(y)
        out_arc = in_arc + (n + m2)  # out(x) -> in(y), capacity 1
        to = np.empty(total, dtype=np.int64)
        cap = np.zeros(total, dtype=np.int64)
        rev = np.empty(total, dtype=np.int64)
        to[in_start] = nodes + n
        cap[in_start] = 1
        rev[in_start] = out_start
        to[out_start] = nodes
        rev[out_start] = in_start
        to[in_arc] = nbrs + n
        rev[in_arc] = out_arc[twin]
        to[out_arc] = nbrs
        cap[out_arc] = 1
        rev[out_arc] = in_arc[twin]
        self.indptr = indptr.tolist()
        self.nbrs = nbrs.tolist()
        self.start = np.concatenate((in_start, out_start, [total])).tolist()
        self.to, self.cap, self.rev = to.tolist(), cap.tolist(), rev.tolist()
        self.touched: List[int] = []  # arcs augmented since the last reset

    def reset(self) -> None:
        """Undo every augmentation since the last reset (unit caps)."""
        cap, rev = self.cap, self.rev
        for a in self.touched:
            cap[a] += 1
            cap[rev[a]] -= 1
        del self.touched[:]

    def pristine_labels(self, sink: int) -> List[int]:
        """Exact distance-to-``in(sink)`` labels on pristine capacities.

        The closed form of the module docstring, from one BFS over the
        undirected adjacency: ``2·dist`` for in-copies, ``2·dist - 1``
        for out-copies, 3 for ``out(sink)`` and ``2n`` when unreachable.
        """
        indptr, nbrs = self.indptr, self.nbrs
        n = self.n
        big = 2 * n
        d = [big] * big
        d[sink] = 0
        queue = [sink]
        qi = 0
        while qi < len(queue):
            y = queue[qi]
            qi += 1
            dy2 = d[y] + 2
            for w in nbrs[indptr[y] : indptr[y + 1]]:
                if d[w] == big:
                    d[w] = dy2
                    d[w + n] = dy2 - 1
                    queue.append(w)
        if indptr[sink + 1] > indptr[sink]:
            d[sink + n] = 3
        return d

    def sink_labels(self, sink: int) -> List[int]:
        """Exact distance-to-*sink* labels on the current residual.

        Reverse BFS: an arc ``x -> y`` with residual capacity relaxes
        ``d[x]`` from ``d[y] + 1``.  Unreachable nodes get the node
        count ``2n`` (the ISAP "done" label).  Used by the
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

    def at_least(
        self, s: int, t: int, k: int, shared_labels: Optional[List[int]] = None
    ) -> bool:
        """Whether κ(s, t) >= k, as a flow ``out(s) -> in(t)``.

        Resets the residual (undo log) first.  *shared_labels* must be
        :meth:`pristine_labels` of *t*; without it they are computed
        here.
        """
        self.reset()
        start, to, cap, rev = self.start, self.to, self.cap, self.rev
        big = 2 * self.n
        sink = t
        source = s + self.n
        d = self.pristine_labels(t) if shared_labels is None else list(shared_labels)
        if d[source] >= big:
            return False
        cur = list(start[:big])
        touched = self.touched
        flow = 0
        relabels = 0
        budget = big  # global-relabel trigger; exactness does not depend on it
        node = source
        path: List[int] = []
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


def _closure_scan_edges(
    num_nodes: int, edges: np.ndarray, cert: np.ndarray, k: int
) -> bool:
    """``κ >= k`` by the bootstrap closure (``k >= 3``, ``n > k``).

    *edges* is the simple graph G (no repeated rows, no self-loops) the
    closure walks and *cert* a sparse certificate H of it that carries
    the pivot, the flow network and the neighbor pairs (see the module
    docstring); passing ``edges`` twice decides G without a certificate.
    """
    n = num_nodes
    degrees = np.bincount(cert.ravel(), minlength=n)
    if int(degrees.min()) < k:
        return False
    pivot = int(degrees.argmin())
    net = _ScanNetwork(n, cert)
    h_ptr, h_nbrs = net.indptr, net.nbrs
    if cert is edges:
        g_ptr, g_nbrs = h_ptr, h_nbrs
    else:
        g_indptr, g_nbrs_arr = csr_adjacency(n, edges)
        g_ptr, g_nbrs = g_indptr.tolist(), g_nbrs_arr.tolist()

    pivot_labels = net.pristine_labels(pivot)
    # count[x] is x's number of neighbors in A; absorbing x drops it by
    # 2n, so members stay negative and max(count) is the best outsider.
    count = [0] * n
    size = 0
    ready = [pivot, *g_nbrs[g_ptr[pivot] : g_ptr[pivot + 1]]]
    while True:
        while ready:
            x = ready.pop()
            if count[x] < 0:
                continue
            count[x] -= 2 * n
            size += 1
            for w in g_nbrs[g_ptr[x] : g_ptr[x + 1]]:
                c = count[w] + 1
                count[w] = c
                if c == k:
                    ready.append(w)
        if size == n:
            break
        best = count.index(max(count))
        if not net.at_least(best, pivot, k, shared_labels=pivot_labels):
            return False
        ready.append(best)

    # Separators through the pivot: non-adjacent pairs of its
    # H-neighbors, grouped by sink so each sink's labels are built once.
    hood = sorted(h_nbrs[h_ptr[pivot] : h_ptr[pivot + 1]])
    for i, u in enumerate(hood):
        adjacent = set(h_nbrs[h_ptr[u] : h_ptr[u + 1]])
        labels = None
        for w in hood[i + 1 :]:
            if w in adjacent:
                continue
            if labels is None:
                labels = net.pristine_labels(u)
            if not net.at_least(w, u, k, shared_labels=labels):
                return False
    return True


def _simple_edges(num_nodes: int, edges: np.ndarray) -> np.ndarray:
    """Distinct canonical ``(u < v)`` rows of *edges*, self-loops dropped.

    Study inputs are already canonical with strictly increasing pair
    keys and come back unchanged (same array, same row order); anything
    else is collapsed and sorted by pair key.
    """
    lo, hi = edges[:, 0], edges[:, 1]
    keys = lo * num_nodes + hi
    if (lo < hi).all() and (keys[1:] > keys[:-1]).all():
        return edges
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    keys = np.unique((lo * num_nodes + hi)[lo != hi])
    return np.stack((keys // num_nodes, keys % num_nodes), axis=1)


def is_k_connected_edges(num_nodes: int, edges: np.ndarray, k: int) -> bool:
    """Exact ``κ(G) >= k`` decision straight from an edge array.

    The study compiler's metric cascade already holds candidate edges
    as arrays, and this decision works on them directly.  Repeated
    edges (in either orientation) and self-loops are ignored.  For
    ``k = 2`` Tarjan runs on the simple graph; for ``k >= 3`` the
    Nagamochi–Ibaraki sparse certificate is applied before any flow
    network is built.  The union and the certificate are called
    through :func:`repro.kernels.get_backend`.  Follows the
    standard convention that a k-connected graph needs at least
    ``k + 1`` nodes; ``k <= 0`` is vacuously true.

    Raises :class:`~repro.exceptions.GraphError` if *edges* is not an
    ``(m, 2)`` array with endpoints in ``[0, num_nodes)``.
    """
    edges = _validate_edges(num_nodes, edges)
    if k <= 0:
        return True
    if num_nodes < k + 1:
        return False
    backend = get_backend()
    if k == 1:
        if edges.shape[0] < num_nodes - 1:
            return False
        labels = backend.min_label_components(num_nodes, edges[:, 0], edges[:, 1])
        return bool((labels == 0).all())

    edges = _simple_edges(num_nodes, edges)
    if edges.shape[0] == 0:
        return False
    degrees = np.bincount(edges[:, 0], minlength=num_nodes) + np.bincount(
        edges[:, 1], minlength=num_nodes
    )
    if int(degrees.min()) < k:
        return False

    if k == 2:
        return is_biconnected_edges(num_nodes, edges)
    cert = backend.sparse_certificate(num_nodes, edges, k)
    return _closure_scan_edges(num_nodes, edges, cert, k)
