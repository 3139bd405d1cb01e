"""Execution engine satellites: trial-block splitting and warm pools.

Pins the under-utilization fix (columns splitting into trial blocks
when there are fewer K columns than workers), the persistent-pool
plumbing, and the scheduling guarantees of the one dispatcher
(:func:`run_units` under its default policy): no head-of-line
blocking (completion order decoupled from result order), no leaked
futures when a unit fails, one retry after a worker death, fail-fast
on a failing study, and one ``unit_completed`` event per unit.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.exceptions import DeadUnitError
from repro.service import events
from repro.simulation import pool, scheduler
from repro.simulation.scheduler import run_units
from repro.study import MetricSpec, Scenario, Study
from repro.study import compiler
from repro.study.compiler import split_trial_blocks


def _map(fn, units, workers):
    """In-order results of *units* under the default policy."""
    results, report = run_units(fn, units, workers=workers)
    assert report.completed == len(units)
    return results


class TestSplitTrialBlocks:
    def test_split_boundary_pinned(self):
        # 1 column, 10 trials, 4 workers: ceil(4/1) = 4 blocks with
        # linspace boundaries 0|2|5|7|10.  This layout is part of the
        # determinism story, so pin it exactly.
        assert split_trial_blocks(1, 10, 4) == [
            (0, 0, 2),
            (0, 2, 5),
            (0, 5, 7),
            (0, 7, 10),
        ]

    def test_more_columns_than_workers_no_split(self):
        blocks = split_trial_blocks(8, 10, 4)
        assert blocks == [(c, 0, 10) for c in range(8)]

    def test_splits_capped_by_trials(self):
        # 2 trials cannot split into more than 2 blocks per column.
        blocks = split_trial_blocks(1, 2, 16)
        assert blocks == [(0, 0, 1), (0, 1, 2)]

    def test_blocks_partition_trials(self):
        for columns in (1, 2, 5):
            for trials in (1, 7, 24):
                for workers in (1, 3, 8, 20):
                    blocks = split_trial_blocks(columns, trials, workers)
                    for column in range(columns):
                        spans = [
                            (start, stop)
                            for col, start, stop in blocks
                            if col == column
                        ]
                        assert spans[0][0] == 0
                        assert spans[-1][1] == trials
                        for (_, stop_a), (start_b, _) in zip(spans, spans[1:]):
                            assert stop_a == start_b
                        assert all(start < stop for start, stop in spans)

    def test_total_columns_divisor_override(self):
        # The study compiler schedules several groups into one pool:
        # with 4 total columns and 4 workers, a 1-column group does not
        # split even though 1 < 4.
        assert split_trial_blocks(1, 10, 4, total_columns=4) == [(0, 0, 10)]

    def test_nonzero_start_restricts_to_extension_window(self):
        # Adaptive rounds split only [start, trials); boundaries stay a
        # pure function of the arguments.
        assert split_trial_blocks(1, 20, 4, start=10) == [
            (0, 10, 12),
            (0, 12, 15),
            (0, 15, 17),
            (0, 17, 20),
        ]
        # start=0 is exactly the historical layout
        assert split_trial_blocks(1, 10, 4, start=0) == split_trial_blocks(1, 10, 4)

    def test_empty_extension_yields_no_blocks(self):
        assert split_trial_blocks(3, 10, 4, start=10) == []
        assert split_trial_blocks(3, 10, 4, start=15) == []

    def test_single_trial_extension_block(self):
        assert split_trial_blocks(2, 10, 8, start=9) == [(0, 9, 10), (1, 9, 10)]

    def test_block_count_larger_than_remainder_degrades_to_single_trials(self):
        # 16 workers want 16 blocks, but only 3 trials remain: the
        # window degrades to 3 single-trial blocks, never empty ones.
        blocks = split_trial_blocks(1, 10, 16, start=7)
        assert blocks == [(0, 7, 8), (0, 8, 9), (0, 9, 10)]

    def test_negative_start_rejected(self):
        from repro.exceptions import ParameterError

        with pytest.raises(ParameterError, match="start"):
            split_trial_blocks(1, 10, 4, start=-1)

    def test_offset_blocks_partition_extension_window(self):
        for start in (0, 1, 5, 23, 24):
            for workers in (1, 4, 40):
                blocks = split_trial_blocks(2, 24, workers, start=start)
                if start >= 24:
                    assert blocks == []
                    continue
                for column in range(2):
                    spans = [(a, b) for c, a, b in blocks if c == column]
                    assert spans[0][0] == start
                    assert spans[-1][1] == 24
                    for (_, stop_a), (start_b, _) in zip(spans, spans[1:]):
                        assert stop_a == start_b
                    assert all(a < b for a, b in spans)

    def test_single_column_sweep_splits_and_stays_bit_exact(self):
        study = Study(
            (
                Scenario(
                    name="single",
                    num_nodes=80,
                    pool_size=1000,
                    ring_sizes=(20,),
                    curves=((2, 1.0), (2, 0.5)),
                    metrics=(MetricSpec("connectivity"),),
                    trials=9,
                    seed=13,
                ),
            )
        )
        serial = study.run(workers=1)
        split = study.run(workers=4)
        assert split.provenance["units"] == 4
        assert np.array_equal(serial["single"].values, split["single"].values)


def _double(x: int) -> int:
    return 2 * x


def _exit_once(arg):
    # Kills its worker process the first time it runs (cross-process
    # flag file), breaking the pool; reruns succeed.
    flag, x = arg
    import os

    if not os.path.exists(flag):
        with open(flag, "w"):
            pass
        os._exit(13)
    return 7 * x


def _sleep_then_return(item):
    index, delay = item
    time.sleep(delay)
    return index


def _raise_on_negative(x: int) -> int:
    if x < 0:
        raise ValueError(f"poison batch {x}")
    return 3 * x


class TestPersistentPool:
    def test_executor_is_reused(self):
        if not pool.persistent_pools_enabled():  # pragma: no cover
            return
        first = pool.get_executor(2)
        second = pool.get_executor(2)
        assert first is second

    def test_smaller_request_reuses_grown_pool(self):
        pool.shutdown_pools()  # isolate from pools grown by earlier tests
        big = pool.get_executor(3)
        assert pool.get_executor(2) is big  # no second resident pool
        grown = pool.get_executor(4)
        assert grown is not big

    def test_submit_batches_ordered(self):
        assert _map(_double, [3, 1, 2], workers=2) == [6, 2, 4]

    def test_submit_more_batches_than_window(self):
        assert _map(_double, list(range(9)), workers=2) == [
            2 * x for x in range(9)
        ]

    def test_disabled_pool_still_works(self, monkeypatch):
        monkeypatch.setenv("REPRO_PERSISTENT_POOL", "0")
        assert not pool.persistent_pools_enabled()
        assert _map(_double, [5, 6], workers=2) == [10, 12]

    def test_shutdown_and_recreate(self):
        pool.get_executor(2)
        pool.shutdown_pools()
        again = pool.get_executor(2)
        assert _map(_double, [4], workers=2) == [8]
        assert pool.get_executor(2) is again


class TestWindowScheduling:
    def test_out_of_order_completion_yields_in_order_results(self):
        # Adversarial completion order: the earliest batches are the
        # slowest, so every later batch finishes first.  The old
        # implementation blocked on the *oldest* pending future; the
        # fixed window must still hand results back in submission
        # order, bit-identical to a serial map.
        batches = [(0, 0.30), (1, 0.15)] + [(i, 0.0) for i in range(2, 10)]
        results = _map(_sleep_then_return, batches, workers=3)
        assert results == [_sleep_then_return(b) for b in batches]
        assert results == list(range(10))

    def test_slow_head_does_not_gate_submissions(self):
        # With the window waiting on FIRST_COMPLETED, one slow batch
        # occupies one worker while the other two drain the eight fast
        # batches: total wall clock stays near the slow batch alone.
        # The old oldest-future window serialized roughly ceil(8/2)
        # windows behind the sleeper.  Generous bound to stay un-flaky.
        pool.get_executor(3)  # warm first so spawn cost is excluded
        _map(_sleep_then_return, [(9, 0.0)], workers=3)
        start = time.monotonic()
        batches = [(0, 0.5)] + [(i, 0.0) for i in range(1, 9)]
        results = _map(_sleep_then_return, batches, workers=3)
        elapsed = time.monotonic() - start
        assert results == list(range(9))
        assert elapsed < 1.5

    def test_raising_batch_propagates_and_pool_stays_usable(self):
        if not pool.persistent_pools_enabled():  # pragma: no cover
            return
        batches = [1, 2, -1] + list(range(3, 12))
        with pytest.raises(DeadUnitError, match=r"units \[2\]") as caught:
            _map(_raise_on_negative, batches, workers=2)
        assert isinstance(caught.value.__cause__, ValueError)
        assert "poison batch" in str(caught.value.__cause__)
        # Pending futures were cancelled, not leaked: the warm pool
        # immediately serves the next caller with correct results.
        assert _map(_raise_on_negative, [5, 6, 7], workers=2) == [
            15, 18, 21,
        ]

    def test_ephemeral_path_routes_through_windowed(self, monkeypatch):
        # With warm pools disabled, the supervisor runs the same
        # windowed loop on a per-call executor sized to the request and
        # never touches the warm pool.
        monkeypatch.setenv("REPRO_PERSISTENT_POOL", "0")
        sizes = []
        real = scheduler.ProcessPoolExecutor

        def spy(max_workers):
            sizes.append(max_workers)
            return real(max_workers=max_workers)

        def no_warm_pool(workers):
            raise AssertionError("the warm pool was used")

        monkeypatch.setattr(scheduler, "ProcessPoolExecutor", spy)
        monkeypatch.setattr(pool, "get_executor", no_warm_pool)
        assert _map(_double, [1, 2, 3], workers=2) == [2, 4, 6]
        assert sizes == [2]

    def test_ephemeral_path_propagates_failures(self, monkeypatch):
        monkeypatch.setenv("REPRO_PERSISTENT_POOL", "0")
        with pytest.raises(DeadUnitError) as caught:
            _map(_raise_on_negative, [1, -1] + list(range(2, 10)), workers=2)
        assert isinstance(caught.value.__cause__, ValueError)


class TestExecutorLeases:
    def test_lease_counting(self):
        executor = pool.get_executor(2)
        assert pool.active_leases(executor) == 0
        with pool.executor_lease(executor):
            with pool.executor_lease(executor):
                assert pool.active_leases(executor) == 2
            assert pool.active_leases(executor) == 1
        assert pool.active_leases(executor) == 0

    def test_growth_with_lease_keeps_inflight_work(self):
        # Regression: growing the warm pool used to shutdown(wait=False,
        # cancel_futures=True) the old executor even with a caller's
        # futures still queued on it — those callers saw
        # CancelledError.  With a lease held, growth must retire the old
        # executor gracefully and let its futures finish.
        pool.shutdown_pools()
        small = pool.get_executor(2)
        with pool.executor_lease(small):
            futures = [
                small.submit(_sleep_then_return, (i, 0.15)) for i in range(6)
            ]
            grown = pool.get_executor(4)
            assert grown is not small
            assert [f.result(timeout=30) for f in futures] == list(range(6))
            assert not any(f.cancelled() for f in futures)
        pool.shutdown_pools()

    def test_growth_without_lease_still_cancels(self):
        # Unleased growth keeps the old fast-teardown behavior: queued
        # work is cancelled rather than left running unsupervised.
        pool.shutdown_pools()
        small = pool.get_executor(1)
        futures = [small.submit(_sleep_then_return, (i, 0.2)) for i in range(8)]
        pool.get_executor(2)
        # Cancellation is carried out by the executor's management
        # thread, so poll briefly.  The executor had one worker: at
        # most a couple of futures ran or started; the deep queue must
        # end up cancelled.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and not any(f.cancelled() for f in futures):
            time.sleep(0.01)
        assert any(f.cancelled() for f in futures)
        pool.shutdown_pools()


class TestBrokenPoolRetry:
    def test_whole_batch_retry_after_worker_death(self, tmp_path):
        # A worker killed mid-run (the crash mode behind the chaos
        # harness's broken_pool strategy) breaks the executor; the
        # default policy's one retry reruns every unit that died with
        # it on a fresh pool.
        if not pool.persistent_pools_enabled():  # pragma: no cover
            pytest.skip("whole-batch retry is the warm-pool path")
        pool.shutdown_pools()
        flag = str(tmp_path / "killed_once")
        batches = [(flag, x) for x in range(5)]
        assert _map(_exit_once, batches, workers=2) == [
            7 * x for x in range(5)
        ]
        pool.shutdown_pools()


def _small_study(rings=(12, 15, 18), trials=4):
    return Study(
        (
            Scenario(
                name="plain",
                num_nodes=40,
                pool_size=300,
                ring_sizes=rings,
                curves=((2, 0.6), (2, 1.0)),
                metrics=(MetricSpec("connectivity"),),
                trials=trials,
                seed=11,
            ),
        )
    )


class _CountingFailure:
    """Stands in for ``compiler._group_block``: logs each call, raises.

    Each execution appends one byte to a file, so calls are counted
    across worker processes.
    """

    def __init__(self, path):
        self.path = path

    def __call__(self, plans, active, block):
        with open(self.path, "ab") as handle:
            handle.write(b"x")
        raise ValueError(f"unit {block} is broken")


class TestPlainStudyDispatch:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_plain_run_emits_one_event_per_unit(self, workers):
        study = _small_study()
        with events.capture_events(kinds=("unit_completed",)) as captured:
            result = study.run(workers=workers)
        units = result.provenance["units"]
        assert units > 0
        assert len(captured) == units
        assert sorted(e.fields["unit"] for e in captured) == list(range(units))
        # No policy was named: provenance stays clean.
        assert "faults" not in result.provenance
        assert "scheduler" not in result.provenance

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_study_stops_after_first_unit(self, workers, tmp_path, monkeypatch):
        counter = tmp_path / "executions"
        monkeypatch.setattr(compiler, "_group_block", _CountingFailure(str(counter)))
        study = _small_study(rings=(10, 12, 14, 16, 18, 20), trials=2)
        with pytest.raises(DeadUnitError) as caught:
            study.run(workers=workers)
        assert isinstance(caught.value.__cause__, ValueError)
        executions = counter.stat().st_size
        units = 6  # one block per K column at these worker counts
        if workers == 1:
            # The first unit's two attempts, nothing else.
            assert executions == 2
        else:
            # At most one failed attempt per unit, plus the attempts in
            # flight when the first unit's retry failed.  Running every
            # unit to quarantine would take 2 * units.
            assert executions <= units + workers < 2 * units
