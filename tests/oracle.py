"""Independent per-trial reference for sweep scenarios.

The study engine samples one shared deployment per ``(size, K, trial)``
and derives every curve and metric of a scenario from it.  This module
evaluates the same :class:`~repro.study.scenario.Scenario` cell by cell
instead, with a fresh deployment for every ``(size, K, curve, trial)``,
and shares nothing with the engine's hot path:

* key rings are drawn here with ``Generator.choice``;
* overlaps come from the dense Gram matrix of ring membership
  (:func:`edges_dense`), never from the ``repro.kernels`` overlap
  kernel;
* decisions come from networkx: ``is_connected``, ``node_connectivity``,
  degrees and the largest-component fraction;
* capture metrics come from the ``repro.wsn`` object model
  (:class:`~repro.wsn.network.SecureWSN` with
  :func:`~repro.wsn.attacks.capture_attack` and
  :func:`~repro.wsn.resilience.evaluate_resilience`).

Marginally every cell sees the model of Section II, so an engine
estimate and the oracle estimate of the same cell must agree within
sampling error; only the joint law across cells differs.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple, Union

import networkx as nx
import numpy as np

from repro.channels.disk import DiskChannel
from repro.channels.onoff import OnOffChannel
from repro.keygraphs.rings import rings_to_incidence
from repro.keygraphs.schemes import QCompositeScheme
from repro.study.scenario import ClassMix, MetricSpec, Scenario
from repro.wsn.attacks import capture_attack
from repro.wsn.network import SecureWSN
from repro.wsn.resilience import evaluate_resilience

RingSize = Union[int, Tuple[int, ...]]


def sample_rings(
    num_nodes: int,
    ring_size: RingSize,
    pool_size: int,
    rng: np.random.Generator,
    classes: Optional[ClassMix] = None,
) -> Tuple[List[np.ndarray], Optional[np.ndarray]]:
    """Uniform key rings, plus per-node class labels under a class mix."""
    if classes is None:
        rings = [rng.choice(pool_size, ring_size, replace=False) for _ in range(num_nodes)]
        return rings, None
    assert isinstance(ring_size, tuple)
    labels = rng.choice(len(classes.mu), size=num_nodes, p=classes.mu)
    rings = [rng.choice(pool_size, ring_size[c], replace=False) for c in labels]
    return rings, labels


def edges_dense(rings, q: int) -> np.ndarray:
    """Canonical edge array of the q-intersection graph of *rings*.

    Gram matrix of the ``(n, P)`` membership matrix: ``O(n^2 P)`` flops
    but BLAS-bound, and independent of the inverted-index overlap
    kernel it cross-checks.  *rings* is an ``(n, K)`` array or a ragged
    list of key arrays.
    """
    if isinstance(rings, np.ndarray):
        pool_size = int(rings.max()) + 1 if rings.size else 1
    else:
        pool_size = int(max((int(r.max()) for r in rings if r.size), default=0)) + 1
    incidence = rings_to_incidence(rings, pool_size).astype(np.float32)
    gram = incidence @ incidence.T  # exact: counts <= K < 2**24
    iu, ju = np.triu_indices(gram.shape[0], k=1)
    mask = gram[iu, ju] >= q
    out = np.empty((int(mask.sum()), 2), dtype=np.int64)
    out[:, 0] = iu[mask]
    out[:, 1] = ju[mask]
    return out


def to_graph(num_nodes: int, edges: np.ndarray) -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from(range(num_nodes))
    graph.add_edges_from(map(tuple, np.asarray(edges).tolist()))
    return graph


def sample_graph(
    scenario: Scenario,
    size_index: int,
    ring_size: RingSize,
    q: int,
    p: float,
    rng: np.random.Generator,
) -> nx.Graph:
    """One independent deployment of curve ``(q, p)`` at one ``(size, K)``."""
    n = scenario.num_nodes_at(size_index)
    rings, labels = sample_rings(
        n, ring_size, scenario.pool_size_at(size_index), rng, scenario.classes
    )
    edges = edges_dense(rings, q)
    u, v = edges[:, 0], edges[:, 1]
    if scenario.channel == "disk":
        positions = rng.random((n, 2))
        delta = np.abs(positions[u] - positions[v])
        delta = np.minimum(delta, 1.0 - delta)  # unit torus
        keep = np.hypot(delta[:, 0], delta[:, 1]) <= math.sqrt(p / math.pi)
    elif labels is not None:
        assert scenario.classes is not None
        alpha = np.asarray(scenario.classes.channel_probs)
        keep = rng.random(len(edges)) < p * alpha[labels[u], labels[v]]
    else:
        keep = rng.random(len(edges)) < p
    return to_graph(n, edges[keep])


def graph_metric(graph: nx.Graph, metric: MetricSpec) -> float:
    """A non-capture metric of one realized topology, via networkx."""
    kind = metric.kind
    if kind == "connectivity" or (kind == "k_connectivity" and metric.k == 1):
        return float(nx.is_connected(graph))
    if kind == "k_connectivity":
        return float(nx.node_connectivity(graph) >= metric.k)
    degrees = [d for _, d in graph.degree()]
    if kind == "min_degree":
        return float(min(degrees) >= metric.k)
    if kind == "degree_count":
        return float(degrees.count(metric.h))
    if kind == "giant_fraction":
        largest = max(len(c) for c in nx.connected_components(graph))
        return largest / graph.number_of_nodes()
    raise ValueError(f"not a graph metric: {metric.label}")


def capture_trial(
    scenario: Scenario,
    size_index: int,
    ring_size: int,
    q: int,
    p: float,
    rng: np.random.Generator,
) -> List[float]:
    """All metrics of one deployment built with the ``repro.wsn`` objects."""
    n = scenario.num_nodes_at(size_index)
    scheme = QCompositeScheme(ring_size, scenario.pool_size_at(size_index), q)
    channel = (
        OnOffChannel(p)
        if scenario.channel == "onoff"
        else DiskChannel.for_edge_probability(p, torus=True)
    )
    network = SecureWSN(n, scheme, channel, seed=rng)
    graph = to_graph(n, network.secure_edges())
    values = []
    for metric in scenario.metrics:
        kind = metric.kind
        if kind.startswith("attack_"):
            attack = capture_attack(network, metric.captured, seed=rng)
            values.append(
                float(
                    attack.links_compromised
                    if kind == "attack_compromised"
                    else attack.links_evaluated
                )
            )
        elif metric.needs_capture:
            outcome = evaluate_resilience(network, metric.captured, seed=rng)
            values.append(
                float(
                    outcome.resiliently_connected
                    if kind == "resilient_connectivity"
                    else outcome.connected_ignoring_compromise
                )
            )
        else:
            values.append(graph_metric(graph, metric))
    return values


def oracle_values(scenario: Scenario, seed: int = 0) -> np.ndarray:
    """Per-trial values laid out like ``ScenarioResult.values``.

    The shape is ``(rings, trials, curves, metrics)``, with a leading
    size axis for sized scenarios.  Cell ``(size, K, curve)`` draws its
    trials from ``default_rng([seed, size, K index, curve])``.
    """
    shape = (scenario.num_sizes, scenario.num_rings, scenario.trials)
    out = np.empty(shape + (scenario.num_curves, len(scenario.metrics)))
    for si in range(scenario.num_sizes):
        for ri, ring in enumerate(scenario.ring_sizes_at(si)):
            for ci, (q, p) in enumerate(scenario.curves_at(si)):
                rng = np.random.default_rng([seed, si, ri, ci])
                for t in range(scenario.trials):
                    if scenario.needs_capture:
                        out[si, ri, t, ci] = capture_trial(scenario, si, ring, q, p, rng)
                    else:
                        graph = sample_graph(scenario, si, ring, q, p, rng)
                        out[si, ri, t, ci] = [
                            graph_metric(graph, m) for m in scenario.metrics
                        ]
    return out if scenario.sized else out[0]
