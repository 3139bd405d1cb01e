"""Shared fixtures for the test suite."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.params import QCompositeParams
from repro.simulation.pool import get_executor, shutdown_pools

# Warm-pool states the determinism tests run under: "0" tears the pool
# down so the run spawns fresh workers, "1" runs on a pre-spawned pool.
POOL_STARTS = ["0", "1"]


def prepare_pool(pool_start: str, workers: int) -> None:
    """Put the warm pool in the state *pool_start* names."""
    if pool_start == "0":
        shutdown_pools()
    else:
        get_executor(workers)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator for tests that sample."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_params() -> QCompositeParams:
    """A small but non-trivial parameter tuple used across suites."""
    return QCompositeParams(
        num_nodes=50, key_ring_size=20, pool_size=500, overlap=2, channel_prob=0.7
    )


@pytest.fixture
def figure1_params() -> QCompositeParams:
    """One Figure 1 point (q=2, p=0.5 curve at K=60)."""
    return QCompositeParams(
        num_nodes=1000,
        key_ring_size=60,
        pool_size=10000,
        overlap=2,
        channel_prob=0.5,
    )


@pytest.fixture
def diamond_graph() -> np.ndarray:
    """4-cycle plus one chord on nodes 0..3: 2-connected, not 3-connected."""
    return np.array([(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)], dtype=np.int64)


@pytest.fixture
def bowtie_graph() -> np.ndarray:
    """Two triangles sharing node 2 (nodes 0..4): articulation point 2."""
    return np.array([(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)], dtype=np.int64)


def random_gnp_graph(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Plain-python ER sampler for cross-checks (independent of repro code).

    Returns the canonical ``(m, 2)`` edge array (``u < v``, sorted).
    """
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


def edges_of(graph: nx.Graph) -> np.ndarray:
    """Canonical ``(m, 2)`` edge array (``u < v``, sorted) of a networkx graph."""
    pairs = sorted((min(u, v), max(u, v)) for u, v in graph.edges())
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)
