"""Per-unit supervisor: retries, timeouts, speculation, degradation."""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.exceptions import DeadUnitError, ExperimentError, ParameterError
from repro.simulation.faults import ChaosSpec, FaultStrategy
from repro.simulation.scheduler import (
    DEFAULT_POLICY,
    FaultReport,
    SchedulerPolicy,
    combine_fault_reports,
    payload_checksum,
    resolve_scheduler_policy,
    run_units,
)


def _square(x):
    return np.array([x * x], dtype=np.float64)


def _fail_on_three(x):
    if x == 3:
        raise ValueError("unit three is cursed")
    return np.array([x], dtype=np.float64)


def _sleep_for(arg):
    x, delay = arg
    time.sleep(delay)
    return np.array([x], dtype=np.float64)


def _sleep_once(arg):
    # Sleeps only on its first execution (cross-process flag file), so a
    # speculative duplicate returns promptly while the original drags.
    flag, x, delay = arg
    if not os.path.exists(flag):
        with open(flag, "w"):
            pass
        time.sleep(delay)
    return np.array([x], dtype=np.float64)


class TestSchedulerPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"max_retries": 1.5},
            {"unit_timeout": 0.0},
            {"speculate_after": -1.0},
            {"backoff_base": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            SchedulerPolicy(**kwargs)

    def test_to_dict_carries_chaos(self):
        spec = ChaosSpec(seed=3, strategies=(FaultStrategy(kind="crash", probability=0.5),))
        policy = SchedulerPolicy(max_retries=2, chaos=spec)
        data = policy.to_dict()
        assert data["max_retries"] == 2
        assert ChaosSpec.from_dict(data["chaos"]) == spec

    def test_resolve_prefers_explicit_policy(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", '{"seed": 1, "strategies": []}')
        explicit = SchedulerPolicy(max_retries=7)
        assert resolve_scheduler_policy(explicit) is explicit

    def test_resolve_env_implies_policy(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", '{"seed": 1, "strategies": []}')
        resolved = resolve_scheduler_policy(None)
        assert resolved is not None and resolved.chaos == ChaosSpec(seed=1)
        monkeypatch.delenv("REPRO_CHAOS")
        assert resolve_scheduler_policy(None) is None


class TestPayloadChecksum:
    def test_array_checksum_is_content_addressed(self):
        a = np.arange(6.0).reshape(2, 3)
        assert payload_checksum(a) == payload_checksum(a.copy())
        assert payload_checksum(a) != payload_checksum(a.T)
        assert payload_checksum(a) != payload_checksum(a.astype(np.float32))

    def test_nan_bearing_arrays_checksum_stably(self):
        a = np.array([1.0, np.nan, 3.0])
        assert payload_checksum(a) == payload_checksum(a.copy())


class TestRunUnits:
    def test_empty(self):
        results, report = run_units(_square, [], workers=2)
        assert results == [] and report.units == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_happy_path_matches_serial_map(self, workers):
        results, report = run_units(_square, list(range(7)), workers=workers)
        for x, value in enumerate(results):
            assert np.array_equal(value, _square(x))
        assert report.completed == 7 and not report.faulted

    @pytest.mark.parametrize("workers", [1, 2])
    def test_persistent_real_error_quarantines_unit(self, workers):
        results, report = run_units(
            _fail_on_three,
            list(range(5)),
            workers=workers,
            policy=SchedulerPolicy(max_retries=2, backoff_base=0.01),
        )
        assert results[3] is None
        for x in (0, 1, 2, 4):
            assert np.array_equal(results[x], np.array([float(x)]))
        assert report.errors == 3  # initial try + 2 retries
        assert [d["unit_index"] for d in report.dead_units] == [3]
        assert "cursed" in report.dead_units[0]["last_error"]

    def test_allow_partial_false_raises(self):
        with pytest.raises(DeadUnitError, match=r"units \[3\]"):
            run_units(
                _fail_on_three,
                list(range(5)),
                workers=2,
                policy=SchedulerPolicy(
                    max_retries=1, backoff_base=0.01, allow_partial=False
                ),
            )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_dead_unit_error_chains_last_exception(self, workers):
        with pytest.raises(DeadUnitError) as caught:
            run_units(
                _fail_on_three,
                list(range(5)),
                workers=workers,
                policy=SchedulerPolicy(
                    max_retries=1, backoff_base=0.01, allow_partial=False
                ),
            )
        cause = caught.value.__cause__
        assert isinstance(cause, ValueError) and "cursed" in str(cause)

    def test_default_policy_fails_fast(self):
        assert DEFAULT_POLICY.max_retries == 1 and not DEFAULT_POLICY.allow_partial
        with pytest.raises(DeadUnitError, match=r"units \[3\]"):
            run_units(_fail_on_three, list(range(5)), workers=1)

    def test_keyboard_interrupt_is_not_a_unit_failure(self):
        attempts = []

        def interrupted(x):
            attempts.append(x)
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_units(
                interrupted,
                [0, 1],
                workers=1,
                policy=SchedulerPolicy(max_retries=3, backoff_base=0.0),
            )
        assert attempts == [0]

    def test_inline_and_pool_paths_agree_under_chaos(self):
        spec = ChaosSpec(
            seed=7,
            strategies=(FaultStrategy(kind="crash", probability=0.6, max_attempt=2),),
        )
        policy = SchedulerPolicy(max_retries=4, backoff_base=0.01, chaos=spec)
        pooled, pooled_report = run_units(_square, list(range(6)), workers=2, policy=policy)
        inline, inline_report = run_units(_square, list(range(6)), workers=1, policy=policy)
        for a, b in zip(pooled, inline):
            assert np.array_equal(a, b)
        # Chaos decisions key on (unit, attempt), not on worker count.
        assert pooled_report.crashes == inline_report.crashes
        assert pooled_report.retries == inline_report.retries

    def test_unit_timeout_quarantines_hung_unit(self):
        units = [(0, 0.0), (1, 5.0), (2, 0.0)]
        start = time.monotonic()
        results, report = run_units(
            _sleep_for,
            units,
            workers=2,
            policy=SchedulerPolicy(max_retries=1, unit_timeout=0.2, backoff_base=0.01),
        )
        elapsed = time.monotonic() - start
        assert results[1] is None
        assert np.array_equal(results[0], np.array([0.0]))
        assert np.array_equal(results[2], np.array([2.0]))
        assert report.timeouts == 2  # initial try + its one retry
        assert [d["unit_index"] for d in report.dead_units] == [1]
        assert elapsed < 4.0  # quarantined long before the 5s sleep ends

    def test_speculation_dedups_bit_identical_results(self, tmp_path):
        flag = str(tmp_path / "slept_once")
        units = [
            (flag, 0, 0.6),  # straggles only on its first execution
            (str(tmp_path / "unused"), 1, 0.0),
        ]
        # A second deliberately slow unit keeps the supervisor loop
        # alive long enough to observe the straggler's late original.
        units.append((str(tmp_path / "unused2"), 2, 0.0))
        results, report = run_units(
            _sleep_once,
            units,
            workers=3,
            policy=SchedulerPolicy(speculate_after=0.1, backoff_base=0.01),
        )
        for index, (_, x, _) in enumerate(units):
            assert np.array_equal(results[index], np.array([float(x)]))
        assert report.speculative >= 1
        assert report.completed == 3

    def test_chaos_broken_pool_recovers(self):
        spec = ChaosSpec(
            seed=3,
            strategies=(
                FaultStrategy(kind="broken_pool", probability=0.9, max_attempt=1),
            ),
        )
        results, report = run_units(
            _square,
            list(range(4)),
            workers=2,
            policy=SchedulerPolicy(max_retries=4, backoff_base=0.01, chaos=spec),
        )
        for x, value in enumerate(results):
            assert np.array_equal(value, _square(x))
        assert report.pool_breaks >= 1
        assert report.completed == 4


class TestFaultReport:
    def test_summary_mentions_only_nonzero_counters(self):
        report = FaultReport(units=3, completed=3, retries=2)
        text = report.summary()
        assert "retries=2" in text and "drops" not in text

    def test_combine(self):
        a = FaultReport(units=2, completed=2, retries=1, crashes=1)
        b = FaultReport(units=3, completed=2, drops=2)
        b.dead_units.append({"unit_index": 1, "failures": 4, "last_error": "drop"})
        combined = combine_fault_reports([a.to_dict(), None, b.to_dict()])
        assert combined["units"] == 5
        assert combined["retries"] == 1 and combined["drops"] == 2
        assert combined["dead_units"] == b.to_dict()["dead_units"]
        assert combine_fault_reports([None, None]) is None


class TestMergePartialShards:
    """ScenarioResult.merge error paths on NaN-bearing (degraded) shards."""

    @pytest.fixture(scope="class")
    def shards(self):
        from repro.study.compiler import Study
        from repro.study.scenario import MetricSpec, Scenario

        scenario = Scenario(
            name="partial",
            num_nodes=40,
            pool_size=300,
            ring_sizes=(12, 15),
            curves=((2, 0.6), (2, 1.0)),
            trials=4,
            seed=11,
            metrics=(MetricSpec("connectivity"),),
        )
        study = Study((scenario,))
        # Every unit's result is dropped on every attempt and the retry
        # budget is zero: all units dead-letter, so each shard is fully
        # NaN — the extreme degraded case.
        doomed = SchedulerPolicy(
            max_retries=0,
            backoff_base=0.0,
            chaos=ChaosSpec(
                seed=1, strategies=(FaultStrategy(kind="drop", probability=1.0),)
            ),
        )
        first = study.run(workers=1, scheduler=doomed)["partial"]
        second = study.run_extension(4, 8, workers=1, scheduler=doomed)["partial"]
        assert np.isnan(first.values).all() and np.isnan(second.values).all()
        return first, second

    def test_adjacent_nan_shards_merge(self, shards):
        first, second = shards
        merged = first.merge(second)
        assert merged.num_trials == 8
        assert np.isnan(merged.values).all()

    def test_overlap_rejected(self, shards):
        first, _ = shards
        with pytest.raises(ExperimentError, match="overlapping trial ranges"):
            first.merge(first)

    def test_gap_rejected(self, shards):
        from repro.study.compiler import Study

        first, second = shards
        gapped = Study((second.scenario.with_trials(4),)).run_extension(
            10,
            14,
            workers=1,
            scheduler=SchedulerPolicy(
                max_retries=0,
                backoff_base=0.0,
                chaos=ChaosSpec(
                    seed=1, strategies=(FaultStrategy(kind="drop", probability=1.0),)
                ),
            ),
        )["partial"]
        with pytest.raises(ExperimentError, match="non-adjacent trial ranges"):
            first.merge(gapped)

    def test_mismatched_scenarios_rejected(self, shards):
        import dataclasses

        first, second = shards
        other = dataclasses.replace(
            second, scenario=dataclasses.replace(second.scenario, seed=99)
        )
        with pytest.raises(ExperimentError, match="fields \\['seed'\\] differ"):
            first.merge(other)
