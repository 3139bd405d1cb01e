"""Shard transport: bit-identity to one-shot runs, integrity checks.

The contract under test: any shard layout — trial-axis windows,
size-axis slices, executed in-process or through a child interpreter —
folds back to values bit-identical to ``Study.run``, because work
units are seeded by absolute ``(size_index, ring_index, trial)``
addresses.  The integrity half: tampered studies, corrupted payloads,
and missing shards fail loudly with the typed service exceptions, not
silently with NaN.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.exceptions import ParameterError, ShardMismatchError, TransportError
from repro.service.shards import (
    SHARD_FORMAT,
    SHARD_RESULT_FORMAT,
    InProcessTransport,
    SubprocessTransport,
    execute_shard,
    fold_shard_results,
    get_transport,
    make_shards,
    run_sharded,
)
from repro.simulation.scheduler import SchedulerPolicy
from repro.study.compiler import Study
from repro.study.result import ScenarioResult
from repro.study.scenario import MetricSpec, Scenario

WORKERS = 2


def _growth_scenario(trials=6, name="growth"):
    return Scenario(
        name=name,
        num_nodes_grid=(30, 40),
        pool_size=300,
        ring_sizes=(12, 15),
        curves=((2, 0.6), (2, 1.0)),
        trials=trials,
        seed=11,
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
    def test_trial_axis_windows_tile_the_range(self, study):
        shards = make_shards(study, axis="trial", shards=3)
        windows = [tuple(s["trial_window"]) for s in shards]
        assert windows[0][0] == 0 and windows[-1][1] == 6
        for (_, prev_stop), (start, _) in zip(windows, windows[1:]):
            assert start == prev_stop

    def test_size_axis_covers_every_index_once(self, study):
        shards = make_shards(study, axis="size", shards=2)
        seen = [si for s in shards for si in s["sizes"]]
        assert sorted(seen) == [0, 1]
        assert all(tuple(s["trial_window"]) == (0, 6) for s in shards)

    def test_shards_are_self_describing_json(self, study):
        shards = make_shards(study, shards=2)
        for shard in shards:
            round_tripped = json.loads(json.dumps(shard))
            assert round_tripped["format"] == SHARD_FORMAT
            assert Study.from_dict(round_tripped["study"]).scenarios

    def test_window_restricts_the_split(self, study):
        shards = make_shards(study, shards=2, window=(4, 6))
        assert [tuple(s["trial_window"]) for s in shards] == [(4, 5), (5, 6)]

    def test_rejects_bad_axis_and_counts(self, study):
        with pytest.raises(ParameterError, match="axis"):
            make_shards(study, axis="ring")
        with pytest.raises(ParameterError, match="shards"):
            make_shards(study, shards=0)


class TestInProcessBitIdentity:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_trial_axis(self, study, baseline, shards):
        result = run_sharded(study, axis="trial", shards=shards, workers=WORKERS)
        _assert_identical(baseline, result, study)
        assert result.provenance["transport"] == "inprocess"
        assert result.provenance["shards"] == shards

    def test_size_axis(self, study, baseline):
        result = run_sharded(study, axis="size", shards=2, workers=WORKERS)
        _assert_identical(baseline, result, study)
        assert result.provenance["shard_axis"] == "size"

    def test_supervised_shards_stay_identical(self, study, baseline):
        transport = InProcessTransport(
            workers=WORKERS, scheduler=SchedulerPolicy(max_retries=2)
        )
        result = run_sharded(study, transport, shards=2)
        _assert_identical(baseline, result, study)
        assert result.provenance["faults"]["completed"] > 0

    def test_multi_scenario_study(self):
        multi = Study(
            (_growth_scenario(name="a"), _growth_scenario(name="b"))
        )
        base = multi.run(workers=WORKERS)
        result = run_sharded(multi, shards=2, workers=WORKERS)
        _assert_identical(base, result, multi)

    def test_provenance_records_hashes_and_units(self, study):
        result = run_sharded(study, shards=2, workers=WORKERS)
        hashes = result.provenance["scenario_hashes"]
        assert hashes == {sc.name: sc.content_hash() for sc in study.scenarios}
        assert result.provenance["units"] > 0


@pytest.mark.slow
class TestSubprocessTransport:
    def test_trial_axis_bit_identical(self, study, baseline):
        result = run_sharded(
            study, SubprocessTransport(workers=WORKERS), shards=2
        )
        _assert_identical(baseline, result, study)
        assert result.provenance["transport"] == "subprocess"

    def test_size_axis_bit_identical(self, study, baseline):
        result = run_sharded(
            study, SubprocessTransport(workers=WORKERS), axis="size", shards=2
        )
        _assert_identical(baseline, result, study)

    def test_worker_failure_is_a_transport_error(self, study):
        shard = make_shards(study, shards=1)[0]
        bad = dict(shard, study={"scenarios": [{"name": "broken"}]})
        with pytest.raises(TransportError, match="exited with code"):
            SubprocessTransport(workers=1).run(bad)


@pytest.fixture(
    params=[
        ("trial_window", [0.5, 2.9]),
        ("trial_window", ["a", 3]),
        ("trial_window", [0, 2, 5]),
        ("trial_window", "xy"),
        ("trial_window", [True, 3]),
        ("trial_window", [3, 3]),
        ("trial_window", [-1, 2]),
        ("group", True),
        ("group", 0.0),
        ("group", "0"),
        ("sizes", [True]),
        ("sizes", [0.0]),
        ("sizes", 0),
        ("scenario_hashes", []),
    ],
    ids=lambda case: f"{case[0]}={case[1]!r}",
)
def malformed_shard_field(request):
    """One field of a valid shard JSON replaced by a malformed value."""
    return request.param


@pytest.fixture(
    params=[
        ("units", "x"),
        ("units", True),
        ("deployments", "x"),
        ("faults", "x"),
        ("faults", {"units": "x"}),
        ("faults", {"dead_units": 5}),
        ("faults", {"events": [1]}),
        ("faults", {"dead_units": [1]}),
        ("faults", {"window": [0.0, 6]}),
    ],
    ids=lambda case: f"{case[0]}={case[1]!r}",
)
def malformed_result_field(request):
    """One field of a valid shard result payload replaced by a malformed value."""
    return request.param


@pytest.fixture(scope="module")
def one_shard_payload(study):
    return execute_shard(make_shards(study, shards=1)[0], workers=1)


class TestIntegrity:
    def test_malformed_result_is_a_transport_error(
        self, study, one_shard_payload, malformed_result_field
    ):
        field, value = malformed_result_field
        payload = {**one_shard_payload, field: value}
        with pytest.raises(TransportError, match=field):
            fold_shard_results(study, [payload])

    def test_malformed_shard_is_a_transport_error(self, study, malformed_shard_field):
        # A float window used to run the truncated trials [0, 2) and a
        # bool group or size index was read as 1.
        field, value = malformed_shard_field
        shard = {**make_shards(study, shards=2)[0], field: value}
        with pytest.raises(TransportError, match=field):
            execute_shard(shard, workers=1)

    def test_tampered_study_hash_mismatch(self, study):
        shard = make_shards(study, shards=1)[0]
        reseeded = Study((dataclasses.replace(study.scenarios[0], seed=99),))
        tampered = dict(shard, study=reseeded.to_dict())
        with pytest.raises(ShardMismatchError, match="do not match"):
            execute_shard(tampered)

    def test_corrupted_payload_fails_checksum(self, study):
        shard = make_shards(study, shards=1)[0]
        payload = execute_shard(shard, workers=WORKERS)
        name = study.scenarios[0].name
        res = ScenarioResult.from_dict(payload["results"][name])
        flipped = res.values.copy()
        flipped.flat[0] += 1.0
        payload["results"][name] = dataclasses.replace(
            res, values=flipped
        ).to_dict()
        with pytest.raises(TransportError, match="checksum"):
            fold_shard_results(study, [payload])

    def test_missing_shard_is_a_coverage_error(self, study):
        shards = make_shards(study, shards=3)
        payloads = [execute_shard(s, workers=WORKERS) for s in shards[:-1]]
        with pytest.raises(TransportError, match="cover trial window"):
            fold_shard_results(study, payloads)

    def test_wrong_format_payload_rejected(self, study):
        with pytest.raises(TransportError, match=SHARD_RESULT_FORMAT):
            fold_shard_results(study, [{"format": "bogus"}])
        with pytest.raises(TransportError, match=SHARD_FORMAT):
            execute_shard({"format": "bogus"})


class TestGetTransport:
    def test_known_names(self):
        assert get_transport("inprocess").name == "inprocess"
        assert get_transport("subprocess").name == "subprocess"

    def test_unknown_name(self):
        with pytest.raises(ParameterError, match="unknown transport"):
            get_transport("carrier-pigeon")

    def test_subprocess_rejects_scheduler_object(self):
        with pytest.raises(ParameterError, match="REPRO_CHAOS"):
            get_transport("subprocess", scheduler=SchedulerPolicy())


class TestResultFoldPrimitives:
    """overlay/truncated — the fold algebra shards rely on."""

    def test_overlay_fills_nan_disjoint_cells(self, study, baseline):
        name = study.scenarios[0].name
        full = baseline[name]
        left = dataclasses.replace(full, values=full.values.copy())
        right = dataclasses.replace(full, values=full.values.copy())
        left.values[0, ...] = np.nan
        right.values[1, ...] = np.nan
        folded = left.overlay(right)
        assert np.array_equal(folded.values, full.values, equal_nan=True)

    def test_overlay_rejects_disagreeing_cells(self, study, baseline):
        from repro.exceptions import ExperimentError

        name = study.scenarios[0].name
        full = baseline[name]
        other = dataclasses.replace(full, values=full.values + 1.0)
        with pytest.raises(ExperimentError, match="disagree"):
            full.overlay(other)

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
