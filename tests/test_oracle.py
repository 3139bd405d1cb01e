"""Every sweep experiment against the independent per-trial oracle.

:mod:`tests.oracle` re-samples each ``(size, K, curve)`` cell of a
scenario with fresh deployments, dense Gram overlaps, networkx
decisions and the ``repro.wsn`` capture model.  The study engine shares
one deployment across all cells of a ``(size, K, trial)``, so the two
agree marginally, cell by cell:

* indicator metrics — the two Wilson 95% intervals overlap;
* counts and fractions — the means agree within 4 standard errors.

Fixtures are small but sit inside each experiment's transition window,
so the checks are not decided by saturated 0/1 cells alone.  Seeds are
fixed, so every check is deterministic.
"""

from __future__ import annotations

import math
from typing import Callable, Dict

import networkx as nx
import numpy as np
import pytest

from repro.experiments.attack_tradeoff import build_attack_study
from repro.experiments.degree_poisson import build_degree_poisson_study
from repro.experiments.disk_comparison import build_disk_study
from repro.experiments.figure1 import build_figure1_study
from repro.experiments.giant_component import build_giant_study
from repro.experiments.het_mindegree import build_het_mindegree_study
from repro.experiments.het_zero_one import build_het_zero_one_study
from repro.experiments.mindegree_equiv import build_mindegree_study
from repro.experiments.resilience import build_resilience_study
from repro.experiments.theorem1_check import build_theorem1_study
from repro.experiments.zero_one import build_zero_one_study
from repro.keygraphs.uniform_graph import edges_from_rings
from repro.simulation.estimators import wilson_interval
from repro.study import MetricSpec, Scenario, ScenarioResult, Study
from tests.oracle import graph_metric, oracle_values, sample_graph, sample_rings

T = 60

# =========================== fixtures ========================================

#: Registry name -> small study of that experiment.
EXPERIMENTS: Dict[str, Callable[[], Study]] = {
    "figure1": lambda: build_figure1_study(
        trials=T, ring_sizes=(22, 30), num_nodes=60, pool_size=600, seed=1
    ),
    "theorem1": lambda: build_theorem1_study(
        trials=T, alphas=(0.0, 2.0), ks=(1, 2), num_nodes=40,
        key_ring_size=24, pool_size=600, seed=2,
    ),
    "zero_one": lambda: build_zero_one_study(
        trials=T, num_nodes_grid=(40, 60), alpha_offsets=(-1.5, 1.5),
        pool_size=1000, seed=3,
    ),
    "mindegree": lambda: build_mindegree_study(
        trials=T, ks=(1, 2, 3), alphas=(0.0,), num_nodes=40,
        key_ring_size=30, pool_size=500, seed=4,
    ),
    "het_zero_one": lambda: build_het_zero_one_study(
        trials=T, num_nodes_grid=(60,), alpha_offsets=(-1.0, 1.0),
        pool_size=2000, seed=5,
    ),
    "het_mindegree": lambda: build_het_mindegree_study(
        trials=T, ks=(1, 2), alphas=(0.0,), num_nodes=50, pool_size=2000, seed=6
    ),
    "degree_poisson": lambda: build_degree_poisson_study(
        trials=T, num_nodes=60, key_ring_size=30, pool_size=1000, seed=7
    ),
    "attack": lambda: build_attack_study(
        trials=T, qs=(1, 2), captured_grid=(5, 15), num_nodes=40,
        design_nodes=60, pool_size=1000, seed=8,
    ),
    "disk": lambda: build_disk_study(
        trials=T, ring_sizes=(20, 28), num_nodes=50, pool_size=600, seed=9
    ),
    "giant": lambda: build_giant_study(
        trials=T, mean_degrees=(0.8, 2.0), num_nodes=60, key_ring_size=20,
        pool_size=1000, seed=10,
    ),
    "resilience": lambda: build_resilience_study(
        trials=T // 2, qs=(1, 2), captured_grid=(5, 15), num_nodes=40,
        design_nodes=40, pool_size=1000, seed=11,
    ),
}


@pytest.fixture(params=list(EXPERIMENTS))
def experiment(request) -> str:
    return request.param


# =========================== helpers =========================================


def assert_agrees(result: ScenarioResult, reference: np.ndarray) -> None:
    """Cell-by-cell marginal agreement of a study result and the oracle."""
    scenario = result.scenario
    ours = result.values if scenario.sized else result.values[None]
    ref = reference if scenario.sized else reference[None]
    assert ours.shape == ref.shape
    sizes, rings, _, curves, metrics = ours.shape
    for si, ri, ci, mi in np.ndindex(sizes, rings, curves, metrics):
        a, b = ours[si, ri, :, ci, mi], ref[si, ri, :, ci, mi]
        metric = scenario.metrics[mi]
        where = (
            f"{scenario.name}: n={scenario.num_nodes_at(si)} "
            f"K={scenario.ring_sizes_at(si)[ri]} curve={scenario.curves_at(si)[ci]} "
            f"{metric.label}: study mean {a.mean():.3f}, oracle mean {b.mean():.3f}"
        )
        if metric.is_indicator:
            low_a, high_a = wilson_interval(int(a.sum()), a.size)
            low_b, high_b = wilson_interval(int(b.sum()), b.size)
            assert low_a <= high_b and low_b <= high_a, where
        else:
            se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
            assert abs(a.mean() - b.mean()) <= 4.0 * se, where


# =========================== tests ===========================================


def test_every_sweep_experiment_has_a_fixture():
    from repro.experiments.registry import list_experiments

    sweep = {spec.name for spec in list_experiments() if spec.build_study is not None}
    assert sweep == set(EXPERIMENTS)


def test_study_matches_oracle(experiment):
    result = EXPERIMENTS[experiment]().run(workers=1)
    for scenario_result in result.results:
        assert_agrees(scenario_result, oracle_values(scenario_result.scenario, seed=99))


class TestOracleSampler:
    """The oracle's own invariants, independent of the study engine."""

    SCENARIO = Scenario(
        name="oracle",
        num_nodes=80,
        pool_size=600,
        ring_sizes=(14,),
        curves=((2, 0.7),),
        metrics=(MetricSpec("connectivity"),),
        trials=4,
    )

    def test_deterministic_per_generator_state(self):
        a = sample_graph(self.SCENARIO, 0, 14, 2, 0.7, np.random.default_rng(1))
        b = sample_graph(self.SCENARIO, 0, 14, 2, 0.7, np.random.default_rng(1))
        assert sorted(a.edges()) == sorted(b.edges())

    def test_channel_thins_edges(self):
        full = sample_graph(self.SCENARIO, 0, 14, 2, 1.0, np.random.default_rng(2))
        thin = sample_graph(self.SCENARIO, 0, 14, 2, 0.3, np.random.default_rng(2))
        assert thin.number_of_edges() < full.number_of_edges()

    def test_p_one_equals_key_graph(self):
        graph = sample_graph(self.SCENARIO, 0, 14, 2, 1.0, np.random.default_rng(3))
        rings, _ = sample_rings(80, 14, 600, np.random.default_rng(3))
        expect = edges_from_rings(rings, 2)
        assert sorted(graph.edges()) == [tuple(e) for e in expect.tolist()]

    def test_rings_are_uniform_subsets(self):
        rings, labels = sample_rings(50, 14, 600, np.random.default_rng(4))
        assert labels is None
        for ring in rings:
            assert ring.size == 14 == np.unique(ring).size
            assert 0 <= ring.min() and ring.max() < 600

    def test_kconn_implies_mindegree(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            graph = sample_graph(self.SCENARIO, 0, 14, 2, 0.7, rng)
            conn = graph_metric(graph, MetricSpec("k_connectivity", k=2))
            deg = graph_metric(graph, MetricSpec("min_degree", k=2))
            assert conn <= deg

    def test_k1_matches_connectivity(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            graph = sample_graph(self.SCENARIO, 0, 14, 2, 0.7, rng)
            assert graph_metric(graph, MetricSpec("k_connectivity", k=1)) == float(
                nx.is_connected(graph)
            )

    def test_degree_counts_sum_to_n(self):
        graph = sample_graph(self.SCENARIO, 0, 14, 2, 0.7, np.random.default_rng(7))
        top = max(d for _, d in graph.degree())
        total = sum(
            graph_metric(graph, MetricSpec("degree_count", h=h)) for h in range(top + 1)
        )
        assert total == 80

    def test_values_layout_matches_study(self):
        sized = build_zero_one_study(
            trials=2, num_nodes_grid=(30, 40), alpha_offsets=(0.0,), pool_size=1000
        ).scenarios[0]
        result = Study((sized,)).run(workers=1)[sized.name]
        assert oracle_values(sized).shape == result.values.shape
        assert oracle_values(self.SCENARIO).shape == (1, 4, 1, 1)
