"""Deployment sampling and metric evaluation for the study compiler.

One *deployment* is the shared random world of a ``(K, trial)`` cell:
the sampled rings, the candidate pairs sharing at least ``q_min`` keys
with their overlap counts, and the channel variables (one uniform per
candidate edge for the on/off model, torus positions for the disk
model, one capture permutation when attack metrics are requested).
The overlap kernel applies the ``q_min`` threshold itself
(``min_count``), so pairs sharing fewer keys are never materialized,
and the candidates are exactly what it emits.
Every curve and metric of every scenario in the deployment's group is a
deterministic function of these arrays — nothing is resampled.

Draw order is part of the contract (it fixes the random stream):
rings, then on/off uniforms (if any on/off scenario is present), then
disk positions (if any disk scenario), then the capture permutation
(if any capture metric).  The golden digests in
``tests/golden_digests.json`` pin this stream.

The per-curve metric cascade is arranged so work is shared: degrees
are one ``np.bincount`` over the masked pair endpoints and serve the
min-degree law, degree counts, and the k-connectivity pre-filter; the
exact k-connected decision runs only when the pre-filter passes.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ParameterError
from repro.graphs.unionfind import (
    connected_components_labels,
    is_connected_pair_keys,
)
from repro.kernels import get_backend
from repro.keygraphs.rings import (
    sample_class_labels,
    sample_class_rings,
    sample_uniform_rings,
)
from repro.keygraphs.uniform_graph import overlap_counts_from_rings
from repro.study.scenario import ClassMix, MetricSpec, Scenario

__all__ = [
    "Deployment",
    "DeploymentEvaluator",
    "class_pair_probabilities",
    "evaluate_scenario",
    "sample_deployment",
]

# Indicator metrics that are monotone increasing in the edge set: within
# one deployment, curve (q', p') keeps a superset of curve (q, p)'s edges
# whenever q' <= q and p' >= p, so a success at the smaller edge set (or
# a failure at the larger) decides the other curve without recomputing.
# Each metric maps to a deduction *family* sharing one ledger across
# every scenario of the deployment group, plus a strength rank within
# the family (k-connectivity implies the min-degree law at the same k;
# resilient connectivity implies survivor connectivity at the same
# capture level).
_MONOTONE_KINDS = frozenset(
    (
        "connectivity",
        "k_connectivity",
        "min_degree",
        "survivor_connectivity",
        "resilient_connectivity",
    )
)


def _ledger_key(channel: str, metric: MetricSpec):
    """Deduction-family key, or ``None`` if the metric is not monotone."""
    if metric.kind in ("connectivity", "k_connectivity", "min_degree"):
        return ("kconn", channel)
    if metric.kind in ("survivor_connectivity", "resilient_connectivity"):
        return ("capture", metric.captured, channel)
    return None


def _ledger_coords(metric: MetricSpec):
    """(strength rank, k) of a metric inside its deduction family.

    A recorded value decides a target iff the recorded *property* is
    comparable: success transfers downward (recorded at least as strong
    on every axis, edge set a subset), failure transfers upward.
    """
    if metric.kind == "connectivity":
        return (1, 1)
    if metric.kind == "k_connectivity":
        return (1, metric.k)
    if metric.kind == "min_degree":
        return (0, metric.k)
    if metric.kind == "resilient_connectivity":
        return (1, 1)
    return (0, 1)  # survivor_connectivity


@dataclasses.dataclass
class Deployment:
    """One sampled world: rings + candidate pairs + channel variables.

    ``rings`` is the ``(n, K)`` array of a homogeneous deployment or
    the ragged per-node list of a heterogeneous (class-mix) one; in the
    latter case ``labels`` carries the per-node class and
    ``pair_alpha`` the per-candidate class-pair channel probability
    ``alpha[c(u), c(v)]`` (curve ``p`` scales it at mask time).
    """

    num_nodes: int
    rings: Union[np.ndarray, List[np.ndarray]]
    # int64 pair keys u * n + v with count >= q_min: exactly the pairs the
    # overlap kernel emits at min_count=q_min
    candidates: np.ndarray
    counts: np.ndarray  # shared-key count per candidate
    uniforms: Optional[np.ndarray] = None  # on/off channel
    pair_dists: Optional[np.ndarray] = None  # disk channel, per candidate
    capture_order: Optional[np.ndarray] = None  # node permutation
    labels: Optional[np.ndarray] = None  # per-node class (class mix)
    pair_alpha: Optional[np.ndarray] = None  # per-candidate alpha[c(u), c(v)]


def class_pair_probabilities(
    labels: np.ndarray,
    candidates: np.ndarray,
    num_nodes: int,
    channel_probs: Sequence[Sequence[float]],
) -> np.ndarray:
    """Per-candidate channel probability ``alpha[c(u), c(v)]``.

    The heterogeneous on/off channel turns a candidate edge ``(u, v)``
    on with the class-pair probability, so each candidate's threshold
    is a gather from the ``C x C`` matrix indexed by the endpoint
    labels.  Pure post-processing: no randomness is consumed.
    """
    alpha = np.asarray(channel_probs, dtype=np.float64)
    if alpha.ndim != 2 or alpha.shape[0] != alpha.shape[1]:
        raise ParameterError(
            f"channel_probs must be a square matrix, got shape {alpha.shape}"
        )
    labels = np.asarray(labels, dtype=np.int64)
    u = candidates // num_nodes
    v = candidates % num_nodes
    return alpha[labels[u], labels[v]]


def sample_deployment(
    num_nodes: int,
    pool_size: int,
    ring_size: Union[int, Tuple[int, ...]],
    q_min: int,
    rng: np.random.Generator,
    *,
    needs_onoff: bool = True,
    needs_disk: bool = False,
    needs_capture: bool = False,
    class_mix: Optional[ClassMix] = None,
) -> Deployment:
    """Sample one deployment; draw only the channel variables needed.

    With *class_mix*, *ring_size* is the per-class ``(K_1, ..., K_C)``
    vector and the draw order grows a class-label block at the front:
    labels, rings (per class), then the channel variables.  Homogeneous
    deployments keep the established stream layout untouched.
    """
    labels: Optional[np.ndarray] = None
    if class_mix is not None:
        if not isinstance(ring_size, (tuple, list)):
            raise ParameterError(
                "class-mix deployments take a per-class ring-size vector, "
                f"got the scalar {ring_size!r}"
            )
        labels = sample_class_labels(num_nodes, class_mix.mu, rng)
        rings: Union[np.ndarray, List[np.ndarray]] = sample_class_rings(
            labels, ring_size, pool_size, rng
        )
    else:
        if isinstance(ring_size, (tuple, list)):
            raise ParameterError(
                f"homogeneous deployments take one ring size, got {ring_size!r}"
            )
        rings = sample_uniform_rings(num_nodes, int(ring_size), pool_size, rng)
    candidates, cand_counts = overlap_counts_from_rings(rings, q_min)
    uniforms = rng.random(candidates.size) if needs_onoff else None
    pair_dists = None
    if needs_disk:
        positions = rng.random((num_nodes, 2))
        u = candidates // num_nodes
        v = candidates % num_nodes
        delta = np.abs(positions[u] - positions[v])
        delta = np.minimum(delta, 1.0 - delta)  # unit torus
        pair_dists = np.sqrt((delta * delta).sum(axis=1))
    capture_order = rng.permutation(num_nodes) if needs_capture else None
    pair_alpha = None
    if class_mix is not None:
        assert labels is not None
        pair_alpha = class_pair_probabilities(
            labels, candidates, num_nodes, class_mix.channel_probs
        )
    return Deployment(
        num_nodes=num_nodes,
        rings=rings,
        candidates=candidates,
        counts=cand_counts,
        uniforms=uniforms,
        pair_dists=pair_dists,
        capture_order=capture_order,
        labels=labels,
        pair_alpha=pair_alpha,
    )


class DeploymentEvaluator:
    """Evaluate curve masks and metrics on one deployment, with caching.

    Caches are keyed by ``(channel, q, p)`` for masks/degrees/edges and
    by the captured count for attack state, so metrics that share
    intermediate arrays (mask → degrees → exact decision; one censored
    overlap count per captured level) never recompute them.
    """

    def __init__(self, dep: Deployment) -> None:
        self.dep = dep
        self._masks: Dict[Tuple[str, int, float], np.ndarray] = {}
        self._selected: Dict[Tuple[str, int, float], np.ndarray] = {}
        self._degrees: Dict[Tuple[str, int, float], np.ndarray] = {}
        self._compromised: Dict[int, np.ndarray] = {}

    # -- shared intermediates -----------------------------------------

    def curve_mask(self, channel: str, q: int, p: float) -> np.ndarray:
        key = (channel, q, p)
        mask = self._masks.get(key)
        if mask is not None:
            return mask
        dep = self.dep
        overlap_ok = dep.counts >= q
        if channel == "onoff":
            if dep.pair_alpha is not None:
                # Heterogeneous channel: the curve's p scales the
                # per-candidate class-pair probability.  Uniforms lie in
                # [0, 1), so an effective probability of exactly 1 keeps
                # every candidate, like the homogeneous p = 1 fast path.
                assert dep.uniforms is not None
                mask = overlap_ok & (dep.uniforms < p * dep.pair_alpha)
            elif p < 1.0:
                assert dep.uniforms is not None
                mask = overlap_ok & (dep.uniforms < p)
            else:
                mask = overlap_ok
        elif channel == "disk":
            assert dep.pair_dists is not None
            radius = math.sqrt(p / math.pi)
            mask = overlap_ok & (dep.pair_dists <= radius)
        else:  # pragma: no cover - scenarios validate the channel kind
            raise ParameterError(f"unknown channel {channel!r}")
        self._masks[key] = mask
        return mask

    def selected_keys(self, channel: str, q: int, p: float) -> np.ndarray:
        key = (channel, q, p)
        sel = self._selected.get(key)
        if sel is None:
            sel = self.dep.candidates[self.curve_mask(channel, q, p)]
            self._selected[key] = sel
        return sel

    def degrees(self, channel: str, q: int, p: float) -> np.ndarray:
        """Per-node degrees: one batched ``np.bincount`` per curve."""
        key = (channel, q, p)
        deg = self._degrees.get(key)
        if deg is None:
            n = self.dep.num_nodes
            sel = self.selected_keys(channel, q, p)
            deg = np.bincount(sel // n, minlength=n) + np.bincount(
                sel % n, minlength=n
            )
            self._degrees[key] = deg
        return deg

    def _edges(self, channel: str, q: int, p: float) -> np.ndarray:
        n = self.dep.num_nodes
        sel = self.selected_keys(channel, q, p)
        out = np.empty((sel.size, 2), dtype=np.int64)
        out[:, 0] = sel // n
        out[:, 1] = sel % n
        return out

    def _compromised_flags(self, captured: int) -> np.ndarray:
        """Per-candidate flag: all shared keys of the pair captured.

        The capture order is one permutation per deployment, so captured
        sets at increasing levels are nested prefixes (the attack grid
        is coupled the same way the channel grid is).  A candidate pair
        is compromised iff its censored overlap — shared keys drawn
        from the *uncaptured* part of the pool — is zero.
        """
        flags = self._compromised.get(captured)
        if flags is not None:
            return flags
        dep = self.dep
        if captured == 0:
            flags = np.zeros(dep.candidates.size, dtype=bool)
        else:
            assert dep.capture_order is not None
            # Capture metrics are validated incompatible with class
            # mixes, so rings is always the rectangular (n, K) array.
            assert isinstance(dep.rings, np.ndarray)
            captured_nodes = dep.capture_order[:captured]
            captured_keys = np.unique(dep.rings[captured_nodes])
            valid = ~np.isin(dep.rings, captured_keys)
            censored = [dep.rings[i][valid[i]] for i in range(dep.num_nodes)]
            pairs_c, _ = overlap_counts_from_rings(censored)
            pos = np.searchsorted(pairs_c, dep.candidates)
            pos = np.minimum(pos, max(pairs_c.size - 1, 0))
            present = (
                pairs_c[pos] == dep.candidates
                if pairs_c.size
                else np.zeros(dep.candidates.size, dtype=bool)
            )
            flags = ~present
        self._compromised[captured] = flags
        return flags

    def _alive(self, captured: int) -> Tuple[np.ndarray, np.ndarray, int]:
        """(alive node mask, new ids, survivor count) for a capture level."""
        dep = self.dep
        alive = np.ones(dep.num_nodes, dtype=bool)
        if captured:
            assert dep.capture_order is not None
            alive[dep.capture_order[:captured]] = False
        new_ids = np.cumsum(alive) - 1
        return alive, new_ids, int(alive.sum())

    def _survivor_keys(
        self, channel: str, q: int, p: float, captured: int, *, trusted_only: bool
    ) -> Tuple[int, np.ndarray]:
        """Relabel masked links between surviving nodes to survivor ids."""
        dep = self.dep
        mask = self.curve_mask(channel, q, p)
        if trusted_only:
            mask = mask & ~self._compromised_flags(captured)
        alive, new_ids, n_live = self._alive(captured)
        sel = dep.candidates[mask]
        u = sel // dep.num_nodes
        v = sel % dep.num_nodes
        both = alive[u] & alive[v]
        keys = new_ids[u[both]] * np.int64(n_live) + new_ids[v[both]]
        return n_live, keys

    # -- the metric dispatch ------------------------------------------

    def evaluate(self, channel: str, q: int, p: float, metric: MetricSpec) -> float:
        dep = self.dep
        kind = metric.kind
        if kind == "connectivity":
            return float(
                is_connected_pair_keys(dep.num_nodes, self.selected_keys(channel, q, p))
            )
        if kind == "min_degree":
            return float(int(self.degrees(channel, q, p).min()) >= metric.k)
        if kind == "degree_count":
            return float(int((self.degrees(channel, q, p) == metric.h).sum()))
        if kind == "k_connectivity":
            if metric.k == 1:
                return float(
                    is_connected_pair_keys(
                        dep.num_nodes, self.selected_keys(channel, q, p)
                    )
                )
            if int(self.degrees(channel, q, p).min()) < metric.k:
                return 0.0  # batched min-degree pre-filter
            # Exact decision through the kernel set, on edge arrays:
            # Tarjan on the simple graph (k = 2), or the Nagamochi–
            # Ibaraki certificate then the bootstrap-closure scan
            # (k >= 3).
            return float(
                get_backend().k_connected(
                    dep.num_nodes, self._edges(channel, q, p), metric.k
                )
            )
        if kind == "giant_fraction":
            edges = self._edges(channel, q, p)
            labels = connected_components_labels(dep.num_nodes, edges)
            return float(np.bincount(labels).max() / dep.num_nodes)
        if kind == "attack_evaluated":
            alive, _, _ = self._alive(metric.captured)
            sel = self.selected_keys(channel, q, p)
            u = sel // dep.num_nodes
            v = sel % dep.num_nodes
            return float(int((alive[u] & alive[v]).sum()))
        if kind == "attack_compromised":
            mask = self.curve_mask(channel, q, p)
            comp = self._compromised_flags(metric.captured)
            alive, _, _ = self._alive(metric.captured)
            sel = dep.candidates[mask & comp]
            u = sel // dep.num_nodes
            v = sel % dep.num_nodes
            return float(int((alive[u] & alive[v]).sum()))
        if kind == "survivor_connectivity":
            n_live, keys = self._survivor_keys(
                channel, q, p, metric.captured, trusted_only=False
            )
            return float(is_connected_pair_keys(n_live, keys))
        if kind == "resilient_connectivity":
            n_live, keys = self._survivor_keys(
                channel, q, p, metric.captured, trusted_only=True
            )
            return float(is_connected_pair_keys(n_live, keys))
        raise ParameterError(f"unknown metric kind {kind!r}")  # pragma: no cover


def evaluate_scenario(
    evaluator: DeploymentEvaluator,
    scenario: Scenario,
    ledgers: Optional[Dict] = None,
    curves: Optional[Tuple] = None,
) -> np.ndarray:
    """All ``(curve, metric)`` values of one scenario on one deployment.

    *curves* overrides the scenario's flat curve grid — the compiler
    passes ``scenario.curves_at(size_index)`` so sized scenarios
    evaluate the curve list belonging to the deployment's network size.

    Monotone indicator metrics use lattice deduction: every measured
    value is recorded in a per-deployment ledger at coordinates
    ``(strength rank, k, q, p)``, and a new cell is computed only when
    no recorded value decides it — a *success* transfers to any weaker
    property on a superset edge set (smaller rank/k, smaller q, larger
    p), a *failure* to any stronger property on a subset edge set.
    Passing a shared ``ledgers`` dict extends the deduction across all
    scenarios of a deployment group (e.g. a k = 2 biconnectivity
    failure decides k = 3 cells at thinner channels before any flow
    runs).  Deductions are exact — monotonicity holds per deployment,
    not just in distribution — so results are bit-identical to
    exhaustive evaluation; the expensive exact k-connectivity decision
    is precisely the metric they short-circuit most often.
    """
    if curves is None:
        curves = scenario.curves
    out = np.empty((len(curves), len(scenario.metrics)), dtype=np.float64)
    if ledgers is None:
        ledgers = {}
    order = sorted(
        range(len(curves)), key=lambda ci: (-curves[ci][0], curves[ci][1])
    )
    for mi, metric in enumerate(scenario.metrics):
        if metric.kind not in _MONOTONE_KINDS:
            for ci, (q, p) in enumerate(curves):
                out[ci, mi] = evaluator.evaluate(scenario.channel, q, p, metric)
            continue
        ledger = ledgers.setdefault(_ledger_key(scenario.channel, metric), [])
        rank, k = _ledger_coords(metric)
        for ci in order:
            q, p = curves[ci]
            value = None
            for rank_e, k_e, q_e, p_e, v_e in ledger:
                if (
                    v_e == 1.0
                    and rank_e >= rank and k_e >= k
                    and q_e >= q and p_e <= p
                ):
                    value = 1.0
                    break
                if (
                    v_e == 0.0
                    and rank_e <= rank and k_e <= k
                    and q_e <= q and p_e >= p
                ):
                    value = 0.0
                    break
            if value is None:
                value = evaluator.evaluate(scenario.channel, q, p, metric)
            ledger.append((rank, k, q, p, value))
            out[ci, mi] = value
    return out
