"""Size-axis studies: one declaration per growth sweep.

Covers the tentpole guarantees of the ``num_nodes_grid`` redesign:

* sized scenarios round-trip through JSON (nested per-size rings,
  curves, and pools included) and run identically after the trip;
* malformed grids are rejected eagerly with clear errors;
* deployment ``(size, ring, trial)`` cells are seeded by
  ``SeedSequence(seed, spawn_key=(size_index, ring_index, trial))``,
  so estimates are bit-identical for any worker count *and* match a
  serial per-size reference evaluation using the same seeds;
* ``zero_one`` is a single size-grid declaration (its statistical
  cross-check against independent sampling is ``tests/test_oracle.py``);
* indicator detection comes from the metric spec, not the values, so
  a pinned value metric renders as mean ± std.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import ExperimentError, ParameterError
from repro.study import (
    MetricSpec,
    Scenario,
    Study,
    StudyResult,
    render_study_result,
    run_scenario,
)


def sized_scenario(**overrides) -> Scenario:
    base = dict(
        name="grow",
        num_nodes_grid=(60, 100),
        pool_size=1500,
        ring_sizes=((22,), (25,)),
        curves=(((2, 1.0), (2, 0.6)), ((2, 0.8), (2, 0.5))),
        metrics=(MetricSpec("connectivity"),),
        trials=5,
        seed=7,
    )
    base.update(overrides)
    return Scenario(**base)


class TestSizedJsonRoundTrip:
    def test_round_trip_equality(self):
        scenario = sized_scenario()
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_round_trip_with_per_size_pools_and_flat_rings(self):
        scenario = sized_scenario(
            pool_size=(1500, 2500), ring_sizes=(22, 26), curves=((2, 1.0),)
        )
        tripped = Scenario.from_json(scenario.to_json())
        assert tripped == scenario
        assert tripped.pool_size_at(1) == 2500
        assert tripped.ring_sizes_at(0) == (22, 26)
        assert tripped.curves_at(1) == ((2, 1.0),)

    def test_to_dict_omits_num_nodes_for_sized(self):
        data = sized_scenario().to_dict()
        assert "num_nodes" not in data
        assert data["num_nodes_grid"] == [60, 100]

    def test_round_tripped_scenario_runs_identically(self):
        scenario = sized_scenario()
        direct = run_scenario(scenario, workers=1)
        tripped = run_scenario(Scenario.from_json(scenario.to_json()), workers=1)
        assert np.array_equal(direct.values, tripped.values)

    def test_study_result_round_trip_keeps_size_axis(self):
        result = Study((sized_scenario(),)).run(workers=1)
        tripped = StudyResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert tripped["grow"].values.shape == (2, 1, 5, 2, 1)
        assert np.array_equal(tripped["grow"].values, result["grow"].values)
        assert tripped["grow"].scenario == sized_scenario()


class TestMalformedGrids:
    def test_num_nodes_and_grid_both_set(self):
        with pytest.raises(ParameterError, match="exactly one of"):
            sized_scenario(num_nodes=100)

    def test_neither_size_declaration(self):
        with pytest.raises(ParameterError, match="num_nodes"):
            Scenario(
                name="x", pool_size=100, trials=1, ring_sizes=(5,),
                curves=((1, 1.0),), metrics=(MetricSpec("connectivity"),),
            )

    def test_duplicate_sizes_rejected(self):
        with pytest.raises(ParameterError, match="distinct"):
            sized_scenario(num_nodes_grid=(60, 60))

    def test_nested_rings_length_mismatch(self):
        with pytest.raises(ParameterError, match="per-size entries"):
            sized_scenario(ring_sizes=((22,),))

    def test_ragged_nested_rings(self):
        with pytest.raises(ParameterError, match="same length"):
            sized_scenario(ring_sizes=((22,), (25, 30)))

    def test_nested_rings_without_grid(self):
        with pytest.raises(ParameterError, match="require num_nodes_grid"):
            Scenario(
                name="x", num_nodes=100, pool_size=1500, trials=2,
                ring_sizes=((22,), (25,)), curves=((2, 1.0),),
                metrics=(MetricSpec("connectivity"),),
            )

    def test_nested_curves_length_mismatch(self):
        with pytest.raises(ParameterError, match="per-size entries"):
            sized_scenario(curves=(((2, 1.0),),))

    def test_ragged_nested_curves(self):
        with pytest.raises(ParameterError, match="same length"):
            sized_scenario(curves=(((2, 1.0),), ((2, 1.0), (2, 0.5))))

    def test_pool_list_length_mismatch(self):
        with pytest.raises(ParameterError, match="pool_size has"):
            sized_scenario(pool_size=(1500,))

    def test_pool_list_without_grid(self):
        with pytest.raises(ParameterError, match="require num_nodes_grid"):
            Scenario(
                name="x", num_nodes=100, pool_size=(1500, 2000), trials=2,
                ring_sizes=(22,), curves=((2, 1.0),),
                metrics=(MetricSpec("connectivity"),),
            )

    def test_per_size_key_parameters_checked(self):
        # Second size's ring exceeds its per-size pool.
        with pytest.raises(ParameterError, match="must not exceed"):
            sized_scenario(pool_size=(1500, 20), ring_sizes=((22,), (25,)))

    def test_from_dict_grid(self):
        data = {
            "name": "g", "num_nodes_grid": [60, 100], "pool_size": 1500,
            "ring_sizes": [[22], [25]], "curves": [[[2, 1.0]], [[2, 0.8]]],
            "metrics": [{"kind": "connectivity"}], "trials": 2,
        }
        scenario = Scenario.from_dict(data)
        assert scenario.sized and scenario.sizes == (60, 100)
        assert scenario.curves_at(1) == ((2, 0.8),)


class TestSizedExecution:
    def test_value_tensor_shape_and_accessors(self):
        res = run_scenario(sized_scenario(), workers=1)
        assert res.values.shape == (2, 1, 5, 2, 1)
        series = res.series("connectivity", (2, 0.8), 25, size=100)
        assert series.shape == (5,)
        est = res.bernoulli(curve=(2, 1.0), ring=22, size=60)
        assert est.trials == 5
        with pytest.raises(ExperimentError, match="pass size="):
            res.series("connectivity", (2, 1.0), 22)
        with pytest.raises(ExperimentError, match="not in scenario"):
            res.series("connectivity", (2, 1.0), 22, size=999)

    @pytest.mark.parametrize("workers_b", [2, 3])
    def test_worker_invariance_bit_exact(self, workers_b):
        a = run_scenario(sized_scenario(), workers=1)
        b = run_scenario(sized_scenario(), workers=workers_b)
        assert np.array_equal(a.values, b.values)

    def test_matches_per_size_reference_seeds(self):
        # The contract the bit-for-bit acceptance rides: cell (s, r, t)
        # of a sized group is the deployment sampled from
        # SeedSequence(seed, spawn_key=(s, r, t)), evaluated on that
        # size's own curves — i.e. exactly the per-size scenarios run
        # one at a time with the same (size, ring, trial) seeds.
        from repro.study.metrics import (
            DeploymentEvaluator,
            evaluate_scenario,
            sample_deployment,
        )
        from repro.utils.rng import grid_seed_sequence

        scenario = sized_scenario()
        values = run_scenario(scenario, workers=2).values
        for si in range(scenario.num_sizes):
            for t in range(scenario.trials):
                rng = np.random.default_rng(grid_seed_sequence(7, si, 0, t))
                dep = sample_deployment(
                    scenario.num_nodes_at(si),
                    scenario.pool_size_at(si),
                    scenario.ring_sizes_at(si)[0],
                    min(q for q, _ in scenario.curves_at(si)),
                    rng,
                )
                ref = evaluate_scenario(
                    DeploymentEvaluator(dep), scenario, {},
                    curves=scenario.curves_at(si),
                )
                assert np.array_equal(values[si, 0, t], ref)

    def test_sized_never_groups_with_plain(self):
        sized = sized_scenario(
            num_nodes_grid=(100,), ring_sizes=(25,), curves=((2, 1.0),)
        )
        plain = Scenario(
            name="plain", num_nodes=100, pool_size=1500, ring_sizes=(25,),
            curves=((2, 1.0),), metrics=(MetricSpec("connectivity"),),
            trials=5, seed=7,
        )
        study = Study((sized, plain))
        assert len(study.compile()) == 2

    def test_sized_scenarios_share_deployments(self):
        a = sized_scenario(name="a")
        b = sized_scenario(name="b", curves=(((2, 1.0),), ((2, 0.8),)))
        study = Study((a, b))
        plans = study.compile()
        assert len(plans) == 1
        result = study.run(workers=1)
        # Equal (q, p) at equal (size, ring, trial) => equal outcomes.
        assert np.array_equal(
            result["a"].values[:, :, :, 0, 0],
            result["b"].values[:, :, :, 0, 0],
        )

    def test_flat_shared_rings_group_with_equivalent_nested(self):
        flat = sized_scenario(
            name="flat", ring_sizes=(22, 25),
            curves=((2, 1.0),),
        )
        nested = sized_scenario(
            name="nested", ring_sizes=((22, 25), (22, 25)),
            curves=((2, 1.0),),
        )
        assert len(Study((flat, nested)).compile()) == 1

    def test_render_has_size_rows(self):
        text = render_study_result(Study((sized_scenario(),)).run(workers=1))
        assert "n grid=[60, 100]" in text
        assert "connectivity" in text


class TestIndicatorDetectionBySpec:
    def _pinned_result(self):
        # Dense parameters pin giant_fraction at exactly 1.0: every
        # ring shares keys with every other and p = 1 keeps all edges.
        scenario = Scenario(
            name="pinned", num_nodes=25, pool_size=40, ring_sizes=(30,),
            curves=((1, 1.0),),
            metrics=(MetricSpec("giant_fraction"), MetricSpec("connectivity")),
            trials=6, seed=3,
        )
        return run_scenario(scenario, workers=1)

    def test_pinned_value_metric_is_not_bernoulli(self):
        res = self._pinned_result()
        series = res.series("giant_fraction", (1, 1.0), 30)
        assert np.isin(series, (0.0, 1.0)).all()  # the heuristic's trap
        with pytest.raises(ExperimentError, match="not an indicator"):
            res.bernoulli("giant_fraction", (1, 1.0), 30)
        # The true indicator still works at the same pinned values.
        assert res.bernoulli("connectivity", (1, 1.0), 30).estimate == 1.0

    def test_pinned_value_metric_renders_mean_std(self):
        from repro.simulation.estimators import BernoulliEstimate

        res = self._pinned_result()
        text = render_study_result(
            StudyResult(results=(res,), provenance={})
        )
        giant_row = next(
            line for line in text.splitlines() if "giant_fraction" in line
        )
        # Mean ± std row: mean 1.0, sample std 0.0, no Wilson interval.
        assert "1.0000" in giant_row and "0.0000" in giant_row
        wilson_low = BernoulliEstimate.from_counts(6, 6).ci_low
        assert f"{wilson_low:.4f}" not in giant_row


class TestZeroOneSingleDeclaration:
    KW = dict(
        trials=4, num_nodes_grid=(80, 120), alpha_offsets=(-2.0, 2.0),
        pool_size=2000,
    )

    def test_one_sized_scenario(self):
        from repro.experiments.zero_one import build_zero_one_study

        study = build_zero_one_study(
            trials=4, num_nodes_grid=(80, 120), alpha_offsets=(-2.0, 2.0),
            pool_size=2000,
        )
        assert len(study.scenarios) == 1
        scenario = study.scenarios[0]
        assert scenario.sized and scenario.sizes == (80, 120)
        plans = study.compile()
        assert len(plans) == 1 and plans[0].sized

    @pytest.mark.parametrize("workers_b", [2, 3])
    def test_worker_invariance(self, workers_b):
        from repro.experiments.zero_one import run_zero_one

        a = run_zero_one(workers=1, **self.KW)
        b = run_zero_one(workers=workers_b, **self.KW)
        assert [
            (pt.estimate.successes, pt.estimate.trials, dict(pt.point))
            for pt in a.points
        ] == [
            (pt.estimate.successes, pt.estimate.trials, dict(pt.point))
            for pt in b.points
        ]

    def test_unknown_backend(self):
        # One path: adaptive zero-one runs go through run_adaptive_study
        # on build_zero_one_study, so `backend` is no parameter at all.
        from repro.cli import main
        from repro.experiments.zero_one import run_zero_one

        assert "backend" not in run_zero_one(workers=1, **self.KW).config
        with pytest.raises(
            ExperimentError,
            match=r"unknown --set keys \['backend'\]; valid parameters: \['alpha_offsets'",
        ):
            main(["run", "zero_one", "--set", 'backend="adaptive"'])


class TestTheorem1GrowthSweep:
    def test_grid_points_carry_n_and_invariance(self):
        from repro.experiments.theorem1_check import run_theorem1_check

        kwargs = dict(
            trials=4, alphas=(0.0,), ks=(1,), num_nodes_grid=(80, 120),
            key_ring_size=40, pool_size=2000,
        )
        a = run_theorem1_check(workers=1, **kwargs)
        b = run_theorem1_check(workers=2, **kwargs)
        assert [pt.point["n"] for pt in a.points] == [80, 120]
        assert [pt.estimate.successes for pt in a.points] == [
            pt.estimate.successes for pt in b.points
        ]

    def test_plain_mode_unchanged(self):
        from repro.experiments.theorem1_check import run_theorem1_check

        result = run_theorem1_check(
            trials=2, alphas=(0.0,), ks=(1,), num_nodes=100,
            key_ring_size=40, pool_size=2000, workers=1,
        )
        assert "n" not in result.points[0].point


class TestKstarScalingCheck:
    def test_growth_grid_monotone(self):
        from repro.experiments.kstar import render_kstar, run_kstar

        result = run_kstar(num_nodes_grid=(500, 1000, 2000))
        growth = [pt for pt in result.points if "n" in pt.point]
        assert len(growth) == 18  # 3 sizes x 6 curves
        by_curve: dict = {}
        for pt in growth:
            by_curve.setdefault((pt.point["q"], pt.point["p"]), []).append(
                pt.point["kstar_exact"]
            )
        for ks in by_curve.values():
            assert ks == sorted(ks, reverse=True)  # K* falls as n grows
        text = render_kstar(result)
        assert "K* growth check" in text and "non-increasing" in text

    def test_growth_grid_order_independent(self):
        # The monotonicity verdict is about K*(n), not grid order: a
        # descending grid must not trip the warning.
        from repro.experiments.kstar import render_kstar, run_kstar

        text = render_kstar(run_kstar(num_nodes_grid=(2000, 500)))
        assert "WARNING" not in text and "non-increasing" in text
