"""In-process trial shards: bit-identity to one-shot runs, coverage.

The contract under test: any trial-window layout folds back to values
bit-identical to ``Study.run``, because work units are seeded by
absolute ``(size_index, ring_index, trial)`` addresses.  A fold that
does not cover the requested window fails loudly, not silently with
NaN.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.exceptions import ExperimentError, ParameterError, ShardMismatchError
from repro.service.shards import (
    InProcessTransport,
    execute_shard,
    fold_shard_results,
    make_shards,
    run_sharded,
)
from repro.simulation.scheduler import SchedulerPolicy
from repro.study.compiler import Study
from repro.study.result import ScenarioResult
from repro.study.scenario import MetricSpec, Scenario

WORKERS = 2


def _plain_scenario(name, seed, curve, trials=8):
    return Scenario(
        name=name,
        num_nodes=60,
        pool_size=600,
        ring_sizes=(10,),
        curves=(curve,),
        trials=trials,
        seed=seed,
        metrics=(MetricSpec("connectivity"),),
    )


def _growth_scenario(trials=6, name="growth", seed=11):
    return Scenario(
        name=name,
        num_nodes_grid=(30, 40),
        pool_size=300,
        ring_sizes=(12, 15),
        curves=((2, 0.6), (2, 1.0)),
        trials=trials,
        seed=seed,
        metrics=(MetricSpec("connectivity"),),
    )


@pytest.fixture(scope="module")
def study():
    return Study((_growth_scenario(),))


@pytest.fixture(scope="module")
def baseline(study):
    return study.run(workers=WORKERS)


def _assert_identical(baseline, result, study):
    for sc in study.scenarios:
        assert np.array_equal(
            baseline[sc.name].values, result[sc.name].values, equal_nan=True
        )
        assert result[sc.name].scenario == sc


class TestMakeShards:
    def test_trial_axis_windows_tile_the_range(self):
        windows = make_shards((0, 6), shards=3)
        assert windows[0][0] == 0 and windows[-1][1] == 6
        for (_, prev_stop), (start, _) in zip(windows, windows[1:]):
            assert start == prev_stop

    def test_window_restricts_the_split(self):
        assert make_shards((4, 6), shards=2) == [(4, 5), (5, 6)]
        assert make_shards((4, 6), shards=5) == [(4, 5), (5, 6)]

    def test_rejects_bad_counts_and_windows(self):
        for bad in (0, True):
            with pytest.raises(ParameterError, match="shards"):
                make_shards((0, 6), shards=bad)
        with pytest.raises(ParameterError, match="window"):
            make_shards((3, 3))


class TestInProcessBitIdentity:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_trial_axis(self, study, baseline, shards):
        result = run_sharded(study, shards=shards, workers=WORKERS)
        _assert_identical(baseline, result, study)
        assert result.provenance["shards"] == shards

    def test_supervised_shards_stay_identical(self, study, baseline):
        transport = InProcessTransport(
            workers=WORKERS, scheduler=SchedulerPolicy(max_retries=2)
        )
        result = run_sharded(study, transport, shards=2)
        _assert_identical(baseline, result, study)
        assert result.provenance["faults"]["completed"] > 0

    def test_multi_scenario_study(self):
        # "a" and "b" share a deployment family; "c" is a second group.
        # Each shard is a trial window of the whole study.
        multi = Study(
            (
                _growth_scenario(name="a"),
                _growth_scenario(name="b"),
                _growth_scenario(name="c", seed=12),
            )
        )
        assert len(multi.compile()) == 2
        base = multi.run(workers=WORKERS)
        result = run_sharded(multi, shards=2, workers=WORKERS)
        _assert_identical(base, result, multi)
        assert result.provenance["shards"] == 2
        assert result.provenance["deployments"] == base.provenance["deployments"]

    def test_two_group_faults_count_every_unit(self):
        # Two groups with the same trial window used to produce equal
        # fault reports, and the second was dropped as a duplicate.
        two = Study(
            (
                _plain_scenario("a", 11, (1, 0.5)),
                _plain_scenario("b", 12, (1, 0.9)),
            )
        )
        assert len(two.compile()) == 2
        result = run_sharded(
            two, shards=2, workers=1, scheduler=SchedulerPolicy()
        )
        assert result.provenance["units"] == 4
        assert result.provenance["faults"]["units"] == result.provenance["units"]
        assert result.provenance["faults"]["completed"] == 4

    def test_mixed_trial_counts_are_rejected(self):
        mixed = Study((_growth_scenario(name="a"), _growth_scenario(trials=4, name="b")))
        with pytest.raises(ParameterError, match="one trial count"):
            run_sharded(mixed, shards=2, workers=WORKERS)
        # An explicit window is one range for every scenario.
        delta = run_sharded(mixed, shards=2, workers=WORKERS, window=(6, 8))
        assert [res.trial_range for res in delta.results] == [(6, 8), (6, 8)]

    def test_provenance_records_units(self, study):
        result = run_sharded(study, shards=2, workers=WORKERS)
        assert result.provenance["units"] > 0


class TestIntegrity:
    def test_missing_shard_is_a_coverage_error(self, study):
        windows = make_shards((0, 6), shards=3)
        parts = [execute_shard(study, window, WORKERS) for window in windows[:-1]]
        with pytest.raises(ExperimentError, match="cover trial window"):
            fold_shard_results(study, parts)


class TestResultFoldPrimitives:
    """truncated — the prefix the cache answers smaller requests from."""

    def test_truncated_slices_absolute_trials(self, study, baseline):
        name = study.scenarios[0].name
        full = baseline[name]
        cut = full.truncated(4)
        assert cut.num_trials == 4
        assert cut.scenario.trials == 4
        assert np.array_equal(cut.values, full.values[..., :4, :, :])
        assert full.truncated(full.num_trials) is full

    def test_truncated_validates_bounds(self, study, baseline):
        from repro.exceptions import ExperimentError

        full = baseline[study.scenarios[0].name]
        with pytest.raises(ExperimentError):
            full.truncated(0)
        with pytest.raises(ExperimentError):
            full.truncated(full.num_trials + 1)


class TestResultProvenanceStamps:
    def test_to_dict_embeds_hash_and_version(self, study, baseline):
        import repro

        data = baseline[study.scenarios[0].name].to_dict()
        assert data["scenario_hash"] == study.scenarios[0].content_hash()
        assert data["version"] == repro.__version__

    def test_from_dict_rejects_hash_mismatch(self, study, baseline):
        data = baseline[study.scenarios[0].name].to_dict()
        data["scenario_hash"] = "0" * 64
        with pytest.raises(ShardMismatchError, match="hash"):
            ScenarioResult.from_dict(data)

    def test_merge_mismatch_is_typed(self, study, baseline):
        full = baseline[study.scenarios[0].name]
        other = dataclasses.replace(
            full, scenario=dataclasses.replace(full.scenario, seed=99)
        )
        with pytest.raises(ShardMismatchError, match=r"fields \['seed'\] differ"):
            full.merge(other)

    def test_content_hash_ignores_trials_only(self, study):
        sc = study.scenarios[0]
        assert sc.with_trials(100).content_hash() == sc.content_hash()
        assert dataclasses.replace(sc, seed=99).content_hash() != sc.content_hash()
