"""Tests for the pluggable kernel-backend layer (:mod:`repro.kernels`).

Four pillars:

1. registry semantics — names, availability gating, resolution
   precedence (explicit > active > env > reference), context restore;
2. the Nagamochi–Ibaraki sparse certificate — structural guarantees
   (subset, <= k(n-1) edges) and the certificate-equivalence property:
   ``is_k_connected_edges`` (certificate first) agrees bit-for-bit with
   the uncertified deciders on the full edge array (Tarjan for k = 2,
   the closure scan for k >= 3) on random ER and key-ring graphs across a
   k grid, including the k <= 2 shortcut paths, n < k + 1 edge cases
   and malformed edge arrays;
3. backend consistency — every *available* registered backend produces
   identical study metrics on the shared Figure-1 fixture, warm pool on
   and off (the corpus the numba CI leg runs with numba installed);
4. config threading — Scenario fields, JSON round-trip, CLI flag and
   ``repro kernels``, provenance stamping.
"""

from __future__ import annotations

import itertools

import networkx as nx
import numpy as np
import pytest

from repro.cli import main
from repro.exceptions import GraphError, KernelError, ParameterError
from repro.graphs.biconnectivity import is_biconnected_edges
from repro.graphs.generators import erdos_renyi_edges
from repro.graphs.unionfind import is_connected_edges
from repro.graphs.vertex_connectivity import _closure_scan_edges, is_k_connected_edges
from repro.kernels import (
    ENV_VAR,
    available_backends,
    backend_names,
    get_backend,
    register_backend,
    resolve_backend_name,
    set_backend,
    use_backend,
)
from repro.kernels.probe import probe_backends
from repro.kernels.reference import ReferenceBackend, scan_first_certificate
from repro.keygraphs.uniform_graph import uniform_intersection_edges
from repro.study import MetricSpec, Scenario, Study, run_scenario
from tests.oracle import to_graph

AVAILABLE = [info["name"] for info in available_backends() if info["available"]]


@pytest.fixture(autouse=True)
def _reset_active_backend():
    """Never leak set_backend/use_backend state across tests."""
    yield
    set_backend(None)


def _kappa(n, edges):
    """Exact κ from networkx, the reference independent of this package."""
    return nx.node_connectivity(to_graph(n, edges))


def _plain_decision(n, edges, k):
    """The uncertified decider on the full edge array (no certificate pass)."""
    if k <= 0:
        return True
    if n < k + 1:
        return False
    if k == 1:
        return is_connected_edges(n, edges)
    if k == 2:
        return is_biconnected_edges(n, edges)
    return _closure_scan_edges(n, edges, edges, k)


def _key_ring_graph(n, ring, pool, p, seed):
    """A q=2 key-ring graph with Bernoulli(p) channel thinning."""
    edges = uniform_intersection_edges(n, ring, pool, 2, seed=seed)
    if p < 1.0:
        rng = np.random.default_rng(seed + 1)
        edges = edges[rng.random(edges.shape[0]) < p]
    return edges


class TestRegistry:
    def test_reference_always_registered_and_default(self):
        assert backend_names()[0] == "reference"
        assert resolve_backend_name() == "reference"
        assert get_backend().name == "reference"
        infos = {info["name"]: info for info in available_backends()}
        assert infos["reference"]["available"]
        assert "numba" in infos  # registered even when unavailable

    def test_unknown_backend_raises(self):
        with pytest.raises(KernelError, match="unknown kernel backend"):
            resolve_backend_name("no-such-backend")
        with pytest.raises(KernelError):
            get_backend("no-such-backend")
        with pytest.raises(KernelError):
            set_backend("no-such-backend")

    def test_env_var_resolution(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "reference")
        assert resolve_backend_name() == "reference"
        monkeypatch.setenv(ENV_VAR, "bogus")
        with pytest.raises(KernelError, match="REPRO_KERNEL_BACKEND"):
            resolve_backend_name()

    def test_active_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "bogus")
        set_backend("reference")  # CLI flag precedence over env
        assert resolve_backend_name() == "reference"

    def test_use_backend_restores(self):
        assert resolve_backend_name() == "reference"
        with use_backend("reference") as backend:
            assert backend.name == "reference"
            assert resolve_backend_name() == "reference"
        assert resolve_backend_name() == "reference"

    def test_register_replace_roundtrip(self):
        class Probe(ReferenceBackend):
            name = "test-probe"

        register_backend("test-probe", Probe)
        try:
            assert get_backend("test-probe").name == "test-probe"
            assert "test-probe" in backend_names()
        finally:
            # De-register by rebuilding the entry as unavailable.
            register_backend(
                "test-probe", Probe, available=lambda: False,
                unavailable_reason=lambda: "test cleanup",
            )

    def test_numba_gate_when_missing(self):
        infos = {info["name"]: info for info in available_backends()}
        if infos["numba"]["available"]:
            pytest.skip("numba installed; the gate path needs it absent")
        with pytest.raises(KernelError, match="numba"):
            get_backend("numba")


class TestSparseCertificate:
    def test_subset_and_size_bound(self):
        rng = np.random.default_rng(7)
        for n, p in ((30, 0.4), (60, 0.2), (25, 0.9)):
            edges = erdos_renyi_edges(n, p, rng)
            for k in (1, 2, 3, 4):
                cert = scan_first_certificate(n, edges, k)
                assert cert.shape[0] <= k * (n - 1)
                keys = set((edges[:, 0] * n + edges[:, 1]).tolist())
                cert_keys = (cert[:, 0] * n + cert[:, 1]).tolist()
                assert set(cert_keys) <= keys
                assert len(cert_keys) == len(set(cert_keys))

    def test_sparse_input_returned_unchanged(self):
        edges = np.array([[0, 1], [1, 2], [2, 3]], dtype=np.int64)
        cert = scan_first_certificate(4, edges, 2)
        assert cert is edges

    def test_first_forest_spans_components(self):
        # k = 1 certificate of a connected graph is a spanning tree.
        rng = np.random.default_rng(3)
        edges = erdos_renyi_edges(40, 0.3, rng)
        if nx.is_connected(to_graph(40, edges)):
            cert = scan_first_certificate(40, edges, 1)
            assert cert.shape[0] == 39
            assert nx.is_connected(to_graph(40, cert))

    def test_certificate_preserves_kappa_up_to_k(self):
        # The certificate preserves the decision for every k' <= k.
        rng = np.random.default_rng(11)
        for _ in range(5):
            edges = erdos_renyi_edges(24, 0.5, rng)
            k = 4
            cert = scan_first_certificate(24, edges, k)
            assert min(_kappa(24, cert), k) == min(_kappa(24, edges), k)


class TestCertificateEquivalence:
    """Satellite: cert and plain decisions agree bit-for-bit."""

    def test_er_graphs_across_k_grid(self):
        rng = np.random.default_rng(2017)
        for n in (8, 15, 30, 60):
            for p in (0.05, 0.15, 0.4, 0.8):
                edges = erdos_renyi_edges(n, p, rng)
                for k in range(0, 6):
                    plain = _plain_decision(n, edges, k)
                    with_cert = is_k_connected_edges(n, edges, k)
                    assert plain == with_cert, (n, p, k)

    def test_key_ring_graphs_across_k_grid(self):
        for seed, p in ((1, 1.0), (2, 0.6), (3, 0.35)):
            n = 80
            edges = _key_ring_graph(n, 18, 600, p, seed)
            for k in (1, 2, 3, 4):
                plain = _plain_decision(n, edges, k)
                with_cert = is_k_connected_edges(n, edges, k)
                assert plain == with_cert, (seed, p, k)

    def test_k_le_2_shortcut_paths(self):
        # k <= 2 goes through the min-label union / Tarjan; the decision
        # must agree with networkx and with Tarjan on the full array.
        rng = np.random.default_rng(5)
        for n, p in ((12, 0.2), (40, 0.1), (40, 0.3)):
            edges = erdos_renyi_edges(n, p, rng)
            assert is_k_connected_edges(n, edges, 1) == nx.is_connected(to_graph(n, edges))
            assert is_k_connected_edges(n, edges, 2) == is_biconnected_edges(n, edges)

    def test_small_n_edge_cases(self):
        # n < k + 1 is False; k <= 0 is True.
        def complete(n):
            return np.array(list(itertools.combinations(range(n), 2)), dtype=np.int64)

        empty = np.empty((0, 2), dtype=np.int64)
        assert is_k_connected_edges(3, empty, 0)
        assert is_k_connected_edges(1, empty, 0)
        assert not is_k_connected_edges(3, complete(3), 3)
        assert not is_k_connected_edges(4, complete(4), 4)
        assert is_k_connected_edges(4, complete(4), 3)
        assert not is_k_connected_edges(3, empty, 1)
        assert not is_k_connected_edges(2, empty, 2)

    def test_malformed_edge_arrays_raise(self):
        # A negative id must not wrap onto node n - 1, and an id >= n
        # must not surface as a bare IndexError/ValueError.
        negative = [[0, 1], [1, 2], [2, -1]]
        for k in (1, 2, 3):
            with pytest.raises(GraphError):
                is_k_connected_edges(4, negative, k)
        with pytest.raises(GraphError):
            is_k_connected_edges(4, [[0, 1], [1, 2], [2, 5]], 1)
        with pytest.raises(GraphError):
            is_k_connected_edges(4, [[0, 1, 2]], 1)

    def test_matches_exact_kappa(self):
        rng = np.random.default_rng(99)
        for _ in range(8):
            edges = erdos_renyi_edges(14, 0.45, rng)
            kappa = _kappa(14, edges)
            for k in range(1, 6):
                assert is_k_connected_edges(14, edges, k) == (kappa >= k)


def _fixture_study(kernel_backend=None, trials=5):
    """The shared Figure-1-style consistency fixture: every kernel on."""
    return Study(
        (
            Scenario(
                name="consistency",
                num_nodes=70,
                pool_size=600,
                ring_sizes=(14, 18),
                curves=((2, 1.0), (2, 0.6), (3, 1.0)),
                metrics=(
                    MetricSpec("connectivity"),
                    MetricSpec("k_connectivity", k=2),
                    MetricSpec("k_connectivity", k=3),
                    MetricSpec("min_degree", k=3),
                    MetricSpec("giant_fraction"),
                    MetricSpec("degree_count", h=2),
                ),
                trials=trials,
                seed=424242,
                kernel_backend=kernel_backend,
            ),
        )
    )


class TestBackendConsistency:
    """Satellite: all registered backends identical on the fixture."""

    def test_reference_is_available_here(self):
        assert "reference" in AVAILABLE

    @pytest.mark.parametrize("backend", AVAILABLE)
    def test_study_metrics_identical_across_backends(self, backend):
        baseline = _fixture_study(kernel_backend=None).run(workers=1)
        result = _fixture_study(kernel_backend=backend).run(workers=1)
        np.testing.assert_array_equal(
            result["consistency"].values, baseline["consistency"].values
        )
        assert result.provenance["kernel_backends"] == [backend]

    @pytest.mark.parametrize("backend", AVAILABLE)
    @pytest.mark.parametrize("persistent_pool", ["0", "1"])
    def test_warm_pool_on_and_off(self, backend, persistent_pool, monkeypatch):
        monkeypatch.setenv("REPRO_PERSISTENT_POOL", persistent_pool)
        serial = _fixture_study(kernel_backend=backend).run(workers=1)
        pooled = _fixture_study(kernel_backend=backend).run(workers=2)
        np.testing.assert_array_equal(
            serial["consistency"].values, pooled["consistency"].values
        )

    @pytest.mark.parametrize("backend", AVAILABLE)
    def test_sweep_engine_identical_across_backends(self, backend):
        import dataclasses

        scenario = Scenario(
            name="sweep",
            num_nodes=80,
            pool_size=900,
            ring_sizes=(16, 20),
            curves=((2, 1.0), (2, 0.5)),
            metrics=(MetricSpec("connectivity"),),
            trials=6,
            seed=31,
        )
        baseline = run_scenario(scenario, workers=1)
        pinned = dataclasses.replace(scenario, kernel_backend=backend)
        result = run_scenario(pinned, workers=1)
        assert np.array_equal(result.values, baseline.values)

    @pytest.mark.parametrize("backend", AVAILABLE)
    def test_probe_passes(self, backend):
        (probe,) = probe_backends(backend)
        assert probe["available"]
        assert probe["ok"], probe["checks"]


class TestConfigThreading:
    def test_scenario_round_trip_with_backend(self):
        scenario = _fixture_study(kernel_backend="reference").scenarios[0]
        assert scenario.to_dict()["kernel_backend"] == "reference"
        again = Scenario.from_json(scenario.to_json())
        assert again == scenario

    def test_scenario_omits_unset_backend(self):
        scenario = _fixture_study(kernel_backend=None).scenarios[0]
        assert "kernel_backend" not in scenario.to_dict()

    def test_scenario_rejects_unknown_backend(self):
        with pytest.raises(ParameterError, match="unknown kernel backend"):
            _fixture_study(kernel_backend="bogus")

    def test_sweep_spec_rejects_unknown_backend(self):
        spec = {
            "name": "sweep",
            "num_nodes": 10,
            "pool_size": 100,
            "ring_sizes": [5],
            "curves": [[2, 1.0]],
            "metrics": [{"kind": "connectivity"}],
            "trials": 2,
            "kernel_backend": "bogus",
        }
        with pytest.raises(ParameterError, match="unknown kernel backend"):
            Scenario.from_dict(spec)

    def test_protocol_scenario_rejects_backend(self):
        with pytest.raises(ParameterError, match="protocol"):
            Scenario(
                name="coupled",
                kind="protocol",
                protocol="lemma5_coupling",
                num_nodes=30,
                pool_size=200,
                trials=3,
                protocol_params={"ring_size": 8, "channel_prob": 0.9},
                kernel_backend="reference",
            )

    def test_group_conflicting_backends_raise(self):
        base = _fixture_study(kernel_backend="reference").scenarios[0]
        import dataclasses

        other = dataclasses.replace(
            base, name="other", kernel_backend=None
        )
        conflicting = dataclasses.replace(other, kernel_backend="numba")
        with pytest.raises(ParameterError, match="different kernel backends"):
            Study((base, conflicting)).compile()
        # None + explicit is not a conflict: None means ambient.
        plans = Study((base, other)).compile()
        assert len(plans) == 1
        assert plans[0].kernel_backend == "reference"

    def test_env_override_threads_into_provenance(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "reference")
        result = _fixture_study(trials=2).run(workers=1)
        assert result.provenance["kernel_backends"] == ["reference"]
        assert result.provenance["groups"][0]["kernel_backend"] == "reference"


class TestCli:
    def test_kernels_subcommand_smoke(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "reference" in out
        assert "numba" in out

    def test_kernels_single_backend(self, capsys):
        assert main(["kernels", "--backend", "reference"]) == 0
        out = capsys.readouterr().out
        assert "reference" in out

    def test_kernels_unknown_backend_errors(self):
        from repro.exceptions import ExperimentError

        with pytest.raises(ExperimentError):
            main(["kernels", "--backend", "bogus"])

    def test_run_with_kernel_backend_flag(self, capsys):
        code = main(
            [
                "run",
                "figure1",
                "--trials",
                "2",
                "--workers",
                "1",
                "--kernel-backend",
                "reference",
                "--set",
                "ring_sizes=[16]",
                "--set",
                "num_nodes=50",
                "--set",
                "pool_size=500",
            ]
        )
        assert code == 0
        assert "K" in capsys.readouterr().out

    def test_run_with_bad_kernel_backend_fails_fast(self):
        with pytest.raises(KernelError):
            main(["run", "figure1", "--kernel-backend", "bogus"])

    def test_study_set_kernel_backend(self, tmp_path, capsys):
        study = _fixture_study(trials=2)
        path = tmp_path / "study.json"
        path.write_text(study.to_json())
        code = main(
            [
                "study",
                str(path),
                "--workers",
                "1",
                "--set",
                "kernel_backend=reference",
                "--set",
                "trials=2",
            ]
        )
        assert code == 0
        assert "consistency" in capsys.readouterr().out
