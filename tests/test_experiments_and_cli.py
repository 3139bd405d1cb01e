"""Smoke + structure tests for the experiment harness and CLI.

Each experiment runs with tiny trial counts and reduced grids — the
goal is verifying wiring, result structure, and rendering, not
statistical agreement (integration tests cover that).
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.exceptions import ExperimentError
from repro.experiments.attack_tradeoff import (
    render_attack_tradeoff,
    run_attack_tradeoff,
)
from repro.experiments.coupling_check import (
    render_coupling_check,
    run_coupling_check,
)
from repro.experiments.degree_poisson import (
    render_degree_poisson,
    run_degree_poisson,
)
from repro.experiments.disk_comparison import (
    render_disk_comparison,
    run_disk_comparison,
)
from repro.experiments.figure1 import (
    empirical_crossings,
    render_figure1,
    run_figure1,
)
from repro.experiments.kstar import render_kstar, run_kstar
from repro.experiments.mindegree_equiv import (
    render_mindegree_equiv,
    run_mindegree_equiv,
)
from repro.experiments.registry import REGISTRY, get_experiment, list_experiments
from repro.experiments.theorem1_check import (
    render_theorem1_check,
    run_theorem1_check,
)
from repro.experiments.zero_one import render_zero_one, run_zero_one


class TestRegistry:
    def test_all_experiments_registered(self):
        names = {spec.name for spec in list_experiments()}
        assert names == {
            "figure1",
            "kstar",
            "theorem1",
            "zero_one",
            "mindegree",
            "het_zero_one",
            "het_mindegree",
            "degree_poisson",
            "coupling",
            "attack",
            "disk",
            "giant",
            "resilience",
        }

    def test_get_known(self):
        assert get_experiment("figure1").name == "figure1"

    def test_get_unknown_raises_with_suggestions(self):
        with pytest.raises(ExperimentError, match="figure1"):
            get_experiment("nope")

    def test_specs_have_anchors(self):
        for spec in REGISTRY.values():
            assert spec.paper_anchor
            assert callable(spec.run) and callable(spec.render)


class TestFigure1:
    def test_tiny_run_structure(self):
        result = run_figure1(
            trials=4,
            ring_sizes=[30, 70],
            curves=[(2, 0.5)],
            num_nodes=150,
            pool_size=2000,
            workers=1,
        )
        assert len(result.points) == 2
        for pt in result.points:
            assert 0.0 <= pt.estimate.estimate <= 1.0
            assert 0.0 <= pt.prediction <= 1.0

    def test_render_and_crossings(self):
        result = run_figure1(
            trials=4,
            ring_sizes=[20, 40, 60],
            curves=[(2, 1.0)],
            num_nodes=150,
            pool_size=2000,
            workers=1,
        )
        text = render_figure1(result)
        assert "Figure 1 curve: q=2, p=1.0" in text
        crossings = empirical_crossings(result)
        assert (2, 1.0) in crossings


class TestNumericExperiments:
    def test_kstar_table(self):
        result = run_kstar()
        assert len(result.points) == 6
        text = render_kstar(result)
        assert "paper K*" in text and "4/6" in text

    def test_kstar_small_network(self):
        result = run_kstar(num_nodes=100, pool_size=1000)
        assert all(pt.point["kstar_exact"] > 0 for pt in result.points)


class TestMonteCarloExperiments:
    def test_theorem1_check(self):
        result = run_theorem1_check(
            trials=3, alphas=(0.0, 2.0), ks=(1,), num_nodes=120,
            key_ring_size=40, pool_size=2000, workers=1,
        )
        assert len(result.points) == 2
        assert "limit law" in render_theorem1_check(result)

    def test_zero_one(self):
        result = run_zero_one(
            trials=3, num_nodes_grid=(100, 200), alpha_offsets=(-2.0, 2.0),
            pool_size=2000, workers=1,
        )
        assert len(result.points) == 4
        assert "Zero-one" in render_zero_one(result)

    def test_mindegree(self):
        result = run_mindegree_equiv(
            trials=3, ks=(1, 2), alphas=(0.0,), num_nodes=100,
            key_ring_size=40, pool_size=2000, workers=1,
        )
        assert len(result.points) == 2
        for pt in result.points:
            # k-connectivity never exceeds the min-degree event.
            assert pt.point["kconn_estimate"] <= pt.estimate.estimate + 1e-12
        assert "agreement" in render_mindegree_equiv(result)

    def test_degree_poisson(self):
        result = run_degree_poisson(
            trials=6, degrees=(0, 1), num_nodes=150, key_ring_size=40,
            pool_size=2000, workers=1,
        )
        assert len(result.points) == 2
        assert "TV vs Poisson" in render_degree_poisson(result)

    def test_coupling(self):
        result = run_coupling_check(
            trials=4, num_nodes_grid=(60,), key_ring_size=60,
            pool_size=2000, workers=1,
        )
        pt = result.points[0]
        assert pt.point["subset_violations"] == 0
        assert "coupling success" in render_coupling_check(result)

    def test_attack(self):
        result = run_attack_tradeoff(
            trials=2, qs=(1, 2), captured_grid=(5, 40), num_nodes=80,
            design_nodes=200, pool_size=2000, workers=1,
        )
        assert len(result.points) == 4
        assert "K*(q)" in render_attack_tradeoff(result)

    def test_disk(self):
        result = run_disk_comparison(
            trials=3, ring_sizes=(30, 50), num_nodes=100, pool_size=2000,
            workers=1,
        )
        assert len(result.points) == 2
        assert "disk empirical" in render_disk_comparison(result)


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out and "kstar" in out

    def test_run_kstar(self, capsys):
        assert main(["run", "kstar"]) == 0
        assert "paper K*" in capsys.readouterr().out

    def test_run_with_save(self, tmp_path, capsys):
        path = tmp_path / "kstar.json"
        assert main(["run", "kstar", "--save", str(path)]) == 0
        assert path.exists()

    def test_run_unknown_raises(self):
        with pytest.raises(ExperimentError):
            main(["run", "bogus"])

    def test_run_with_set_overrides(self, capsys):
        assert (
            main(
                [
                    "run", "theorem1", "--workers", "1",
                    "--set", "trials=2", "--set", "ks=[1]",
                    "--set", "alphas=[2.0]", "--set", "num_nodes=100",
                    "--set", "key_ring_size=40", "--set", "pool_size=2000",
                ]
            )
            == 0
        )
        assert "limit law" in capsys.readouterr().out

    def test_run_with_grid_prefix_alias(self, capsys):
        assert (
            main(
                [
                    "run", "degree_poisson", "--workers", "1",
                    "--set", "grid.trials=2", "--set", "degrees=[0]",
                    "--set", "num_nodes=100", "--set", "key_ring_size=40",
                    "--set", "pool_size=2000",
                ]
            )
            == 0
        )
        assert "TV vs Poisson" in capsys.readouterr().out

    def test_run_with_unknown_set_key(self):
        with pytest.raises(ExperimentError, match="unknown --set keys"):
            main(["run", "kstar", "--set", "bogus_knob=3"])

    def test_set_requires_key_value(self):
        with pytest.raises(ExperimentError, match="KEY=VALUE"):
            main(["run", "kstar", "--set", "oops"])

    def test_all_applies_set_per_experiment(self, monkeypatch, capsys):
        # `repro all --set` applies each override to the experiments
        # that accept it and skips the rest with a stderr warning
        # (kstar takes no Monte Carlo knobs).
        import repro.cli as cli

        specs = [get_experiment("kstar"), get_experiment("theorem1")]
        monkeypatch.setattr(cli, "list_experiments", lambda: specs)
        assert (
            main(
                [
                    "all", "--workers", "1",
                    "--set", "trials=2", "--set", "ks=[1]",
                    "--set", "alphas=[2.0]", "--set", "num_nodes=100",
                    "--set", "key_ring_size=40", "--set", "pool_size=2000",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "=== kstar" in captured.out
        assert "=== theorem1" in captured.out
        assert "limit law" in captured.out
        assert "kstar does not accept --set trials" in captured.err
        assert "theorem1 does not accept" not in captured.err


class TestCliStudy:
    STUDY = {
        "name": "cli_smoke",
        "num_nodes": 100,
        "pool_size": 1500,
        "ring_sizes": [25, 32],
        "curves": [[2, 1.0]],
        "metrics": [{"kind": "connectivity"}],
        "trials": 3,
        "seed": 5,
    }

    def test_study_file_runs_end_to_end(self, tmp_path, capsys):
        import json

        path = tmp_path / "study.json"
        path.write_text(json.dumps(self.STUDY))
        assert main(["study", str(path), "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "cli_smoke" in out and "connectivity" in out

    def test_study_set_overrides_and_save(self, tmp_path, capsys):
        import json

        path = tmp_path / "study.json"
        path.write_text(json.dumps({"scenarios": [self.STUDY]}))
        save = tmp_path / "out.json"
        assert (
            main(
                [
                    "study", str(path), "--workers", "1",
                    "--set", "trials=2", "--save", str(save),
                ]
            )
            == 0
        )
        saved = json.loads(save.read_text())
        assert saved["scenarios"][0]["scenario"]["trials"] == 2

    def test_study_size_grid_file_end_to_end(self, tmp_path, capsys):
        import json

        study = {
            "name": "cli_growth",
            "num_nodes_grid": [60, 100],
            "pool_size": 1500,
            "ring_sizes": [[22], [25]],
            "curves": [[[2, 1.0]], [[2, 0.8]]],
            "metrics": [{"kind": "connectivity"}],
            "trials": 3,
            "seed": 5,
        }
        path = tmp_path / "growth.json"
        path.write_text(json.dumps(study))
        assert main(["study", str(path), "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "cli_growth" in out and "n grid=[60, 100]" in out

    def test_study_set_num_nodes_grid_replaces_num_nodes(self, tmp_path, capsys):
        import json

        path = tmp_path / "study.json"
        path.write_text(json.dumps(self.STUDY))
        assert (
            main(
                [
                    "study", str(path), "--workers", "1",
                    "--set", "num_nodes_grid=[60,100]",
                    "--set", "trials=2",
                ]
            )
            == 0
        )
        assert "n grid=[60, 100]" in capsys.readouterr().out

    def test_study_set_num_nodes_on_grid_file_demands_axis_overrides(
        self, tmp_path, capsys
    ):
        import json

        study = {
            "name": "cli_growth",
            "num_nodes_grid": [60, 100],
            "pool_size": 1500,
            "ring_sizes": [[22], [25]],
            "curves": [[[2, 1.0]], [[2, 0.8]]],
            "metrics": [{"kind": "connectivity"}],
            "trials": 2,
            "seed": 5,
        }
        path = tmp_path / "growth.json"
        path.write_text(json.dumps(study))
        with pytest.raises(ExperimentError, match="ring_sizes/curves"):
            main(["study", str(path), "--workers", "1", "--set", "num_nodes=80"])
        # Replacing the per-size axes alongside num_nodes works.
        assert (
            main(
                [
                    "study", str(path), "--workers", "1",
                    "--set", "num_nodes=80", "--set", "ring_sizes=[22]",
                    "--set", "curves=[[2, 1.0]]",
                ]
            )
            == 0
        )
        assert "n=80" in capsys.readouterr().out

    def test_study_missing_file(self):
        with pytest.raises(ExperimentError, match="no such study file"):
            main(["study", "/nonexistent/study.json"])

    def test_study_malformed_json(self, tmp_path):
        from repro.exceptions import ParameterError

        path = tmp_path / "bad.json"
        path.write_text("{broken")
        with pytest.raises(ParameterError, match="does not parse"):
            main(["study", str(path)])

    def test_study_target_ci_with_cache_is_refused(self, tmp_path):
        import json
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        path = tmp_path / "study.json"
        path.write_text(json.dumps(self.STUDY))
        cache = tmp_path / "cache"
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]))
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "study", str(path),
                "--target-ci", "0.05", "--cache", str(cache),
            ],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert (
            "--target-ci does not combine with --cache: adaptive runs do "
            "not use the result cache"
        ) in proc.stderr
        assert "repro serve" not in proc.stderr
        assert not cache.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--target-ci", "0"], "ci_target must be positive"),
            (["--max-trials", "8"], "need 'target_ci'"),
            (["--target-ci", "0.05", "--block-trials", "0"], "block_trials"),
        ],
    )
    def test_submit_validates_before_writing_the_job(self, tmp_path, flags, message):
        import json

        from repro.exceptions import ParameterError

        path = tmp_path / "study.json"
        path.write_text(json.dumps(self.STUDY))
        spool = tmp_path / "spool"
        with pytest.raises(ParameterError, match=message):
            main(["submit", str(path), "--spool", str(spool), *flags])
        assert not spool.exists()

    def test_study_malformed_scenario(self, tmp_path):
        import json

        from repro.exceptions import ParameterError

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "num_nodes": 10}))
        with pytest.raises(ParameterError, match="missing required fields"):
            main(["study", str(path)])
