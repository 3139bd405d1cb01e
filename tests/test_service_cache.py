"""Content-addressed cache: cold/warm/extension bit-identity.

The contract: whatever the cache holds, ``run_cached`` returns values
bit-identical to a cold one-shot run — a hit truncates absolute-indexed
trial slots, an extension reruns only the identically-seeded missing
window, and a run reports the units and faults of the work it executed
itself, never those of stored entries.  Exercised with the warm pool on and off and with
chaos injection active, mirroring the PR 6 convergence proofs.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import os
import stat
import threading

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.service.cache import CACHE_FORMAT, ResultCache, run_cached
from repro.service import events
from repro.simulation.faults import ChaosSpec, FaultStrategy
from repro.service.shards import InProcessTransport, run_sharded
from repro.simulation.scheduler import (
    FaultReport,
    SchedulerPolicy,
    combine_fault_reports,
)
from repro.study.adaptive import AdaptivePolicy, run_adaptive_study
from repro.study.compiler import Study
from repro.study.result import ScenarioResult
from repro.study.scenario import STREAM_VERSION, MetricSpec, Scenario
from tests.conftest import POOL_STARTS, prepare_pool

WORKERS = 2


def _scenario(trials=6):
    return Scenario(
        name="cached",
        num_nodes_grid=(30, 40),
        pool_size=300,
        ring_sizes=(12, 15),
        curves=((2, 0.6), (2, 1.0)),
        trials=trials,
        seed=11,
        metrics=(MetricSpec("connectivity"),),
    )


def _chaos_policy():
    spec = ChaosSpec(
        seed=5,
        strategies=(
            FaultStrategy(kind="crash", probability=0.9, max_attempt=2),
        ),
    )
    return SchedulerPolicy(max_retries=4, chaos=spec)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


@pytest.mark.parametrize("pool_start", POOL_STARTS)
class TestDispositionsBitIdentical:
    """Cold → warm → extension, fresh and warm pool, always exact."""

    def test_cold_warm_extension(self, cache, pool_start):
        study = Study((_scenario(),))
        baseline = study.run(workers=WORKERS)
        prepare_pool(pool_start, WORKERS)

        cold = run_cached(study, cache, workers=WORKERS)
        assert cold.provenance["cache"]["disposition"] == "miss"
        assert cold.provenance["cache"]["executed_units"] > 0
        assert np.array_equal(baseline["cached"].values, cold["cached"].values)

        warm = run_cached(study, cache, workers=WORKERS)
        assert warm.provenance["cache"]["disposition"] == "hit"
        assert warm.provenance["cache"]["executed_units"] == 0
        assert warm.provenance["units"] == 0
        assert np.array_equal(baseline["cached"].values, warm["cached"].values)

        extended = Study((_scenario(trials=10),))
        base_ext = extended.run(workers=WORKERS)
        ext = run_cached(extended, cache, workers=WORKERS)
        info = ext.provenance["cache"]
        assert info["disposition"] == "extension"
        assert info["delta_window"] == [6, 10]
        # Only the delta window executed: work units still span every
        # grid column, but the deployments they computed cover only the
        # 4-trial delta, not the full 10.
        assert info["executed_units"] == ext.provenance["units"] > 0
        assert ext.provenance["deployments"] < base_ext.provenance["deployments"]
        assert np.array_equal(base_ext["cached"].values, ext["cached"].values)

        # The extension stored back: the original request now truncates.
        trunc = run_cached(study, cache, workers=WORKERS)
        assert trunc.provenance["cache"]["disposition"] == "hit"
        assert np.array_equal(baseline["cached"].values, trunc["cached"].values)

    def test_chaos_runs_hit_the_same_cache(self, cache, pool_start):
        study = Study((_scenario(),))
        baseline = study.run(workers=WORKERS)
        prepare_pool(pool_start, WORKERS)

        cold = run_cached(study, cache, workers=WORKERS, scheduler=_chaos_policy())
        assert cold.provenance["cache"]["disposition"] == "miss"
        assert cold.provenance["faults"]["crashes"] > 0
        assert np.array_equal(baseline["cached"].values, cold["cached"].values)

        extended = Study((_scenario(trials=10),))
        base_ext = extended.run(workers=WORKERS)
        ext = run_cached(
            extended, cache, workers=WORKERS, scheduler=_chaos_policy()
        )
        assert ext.provenance["cache"]["disposition"] == "extension"
        assert np.array_equal(base_ext["cached"].values, ext["cached"].values)


def _plain(name, seed, curve, trials):
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


class TestFaultDedup:
    def test_extension_does_not_double_count_stored_faults(self, cache):
        study = Study((_scenario(),))
        run_cached(study, cache, workers=WORKERS, scheduler=_chaos_policy())

        extended = Study((_scenario(trials=10),))
        ext = run_cached(
            extended, cache, workers=WORKERS, scheduler=_chaos_policy()
        )
        # The extension reports the delta window's execution alone:
        # the same faults as that window run outside the cache (chaos
        # decisions are seeded per (unit, attempt)).
        delta = extended.run_extension(
            6, 10, workers=WORKERS, scheduler=_chaos_policy()
        )
        for name in FaultReport._COUNTERS:
            assert ext.provenance["faults"][name] == delta.provenance["faults"][name]
        assert ext.provenance["units"] == delta.provenance["units"]

        # Re-requesting the extended study is a pure hit: this run
        # executed nothing, so it reports no faults.
        again = run_cached(extended, cache, workers=WORKERS)
        assert again.provenance["cache"]["disposition"] == "hit"
        assert "faults" not in again.provenance

    def test_hit_after_faulted_run_has_fault_free_provenance(self, cache):
        """Regression: cached-with-faults → fault-free rerun provenance.

        A later fault-free rerun answered entirely from the cache must
        not claim the cold run's crashes as its own execution: no
        ``"faults"``, zero units.
        """
        study = Study((_scenario(),))
        cold = run_cached(study, cache, workers=WORKERS, scheduler=_chaos_policy())
        assert cold.provenance["faults"]["crashes"] > 0

        rerun = run_cached(study, cache, workers=WORKERS)
        info = rerun.provenance["cache"]
        assert info["disposition"] == "hit"
        assert info["executed_units"] == 0
        assert "faults" not in rerun.provenance
        assert np.array_equal(cold["cached"].values, rerun["cached"].values)

    def test_fault_free_history_leaves_hit_provenance_clean(self, cache):
        """A hit on an entry stored without faults carries neither key."""
        study = Study((_scenario(),))
        run_cached(study, cache, workers=WORKERS)
        hit = run_cached(study, cache, workers=WORKERS)
        assert hit.provenance["cache"]["disposition"] == "hit"
        assert "faults" not in hit.provenance
        assert "stored_faults" not in hit.provenance["cache"]

    def test_distinct_windows_both_survive(self):
        base = {
            "units": 1,
            "attempts": 1,
            "completed": 1,
            "events": [{"unit": 0, "attempt": 0, "kind": "crash"}],
            "dead_units": [],
        }
        first = dict(base, window=[0, 6])
        second = dict(base, window=[6, 10])
        combined = combine_fault_reports([first, second])
        # Same (unit, attempt, kind) in different trial windows are
        # genuinely different events; each keeps its window stamp.
        assert combined["attempts"] == 2
        assert [event["window"] for event in combined["events"]] == [[0, 6], [6, 10]]

    def test_each_call_reports_the_units_it_ran(self, cache):
        # {a, b} at 8 trials (a miss), {a} at 16, then {a, b} at 16:
        # both a and b get extended by the third call, whose faults
        # used to add the first call's report twice (7 units, not 2).
        policy = SchedulerPolicy()
        a8, b8 = _plain("a", 11, (1, 0.5), 8), _plain("b", 12, (1, 0.9), 8)
        a16, b16 = a8.with_trials(16), b8.with_trials(16)
        calls = [Study((a8, b8)), Study((a16,)), Study((a16, b16))]
        results = [run_cached(s, cache, workers=1, scheduler=policy) for s in calls]
        assert [r.provenance["cache"]["disposition"] for r in results] == [
            "miss", "extension", "extension"
        ]
        assert [r.provenance["cache"]["executed_units"] for r in results] == [2, 1, 2]
        for result in results:
            info = result.provenance["cache"]
            assert result.provenance["faults"]["units"] == info["executed_units"]
            assert result.provenance["units"] == info["executed_units"]
        one_shot = Study((a16, b16)).run(workers=1)
        for name in ("a", "b"):
            assert np.array_equal(results[-1][name].values, one_shot[name].values)


def _probe_study(trials=8, trials_b=None):
    b_trials = trials if trials_b is None else trials_b
    return Study(
        (_plain("a", 11, (1, 0.5), trials), _plain("b", 12, (1, 0.9), b_trials))
    )


def _cached(cache, policy, *trial_counts):
    """Run the probe study through the cache at each count; return the last."""
    for trials in trial_counts:
        result = run_cached(_probe_study(trials), cache, workers=1, scheduler=policy)
    return result


#: entry point -> (run(cache, policy), its own provenance key, trial
#: ranges asked for, per scenario).
PROVENANCE_PATHS = {
    "run": (
        lambda cache, policy: _probe_study().run(workers=1, scheduler=policy),
        None,
        [(0, 8), (0, 8)],
    ),
    "run_extension": (
        lambda cache, policy: _probe_study().run_extension(
            8, 12, workers=1, scheduler=policy
        ),
        None,
        [(8, 12), (8, 12)],
    ),
    "cached_miss": (
        lambda cache, policy: _cached(cache, policy, 8), "cache", [(0, 8), (0, 8)]
    ),
    "cached_extension": (
        lambda cache, policy: _cached(cache, policy, 8, 12),
        "cache",
        [(0, 12), (0, 12)],
    ),
    "cached_hit": (
        lambda cache, policy: _cached(cache, policy, 8, 8), "cache", [(0, 8), (0, 8)]
    ),
    "cached_bypass": (
        lambda cache, policy: run_cached(
            _probe_study(trials_b=6), cache, workers=1, scheduler=policy
        ),
        "cache",
        [(0, 8), (0, 6)],
    ),
    "adaptive": (
        lambda cache, policy: run_adaptive_study(
            _probe_study(),
            AdaptivePolicy(ci_target=0.001, max_trials=18, block_trials=6),
            workers=1,
            scheduler=policy,
        ),
        "adaptive",
        [(0, 18), (0, 18)],
    ),
    "sharded": (
        lambda cache, policy: run_sharded(
            _probe_study(), shards=2, workers=1, scheduler=policy
        ),
        "shards",
        [(0, 8), (0, 8)],
    ),
}


class TestProvenanceShape:
    """Every entry point stores work sums and call constants, nothing else."""

    @pytest.mark.parametrize("policy", [None, SchedulerPolicy()], ids=["plain", "policy"])
    @pytest.mark.parametrize("path", sorted(PROVENANCE_PATHS))
    def test_one_shape_on_every_path(self, cache, path, policy):
        run, own_key, ranges = PROVENANCE_PATHS[path]
        result = run(cache, policy)
        provenance = result.provenance
        expected = {"engine", "workers", "units", "deployments"}
        if own_key is not None:
            expected.add(own_key)
        if policy is not None and provenance["units"] > 0:
            expected |= {"scheduler", "faults"}
        assert set(provenance) == expected
        own = provenance.get(own_key)
        if isinstance(own, dict):
            assert not {"groups", "trial_window", "scenario_hashes"} & set(own)
        # Trial coverage is read from the results, never from provenance.
        assert [result[name].trial_range for name in ("a", "b")] == ranges


class TestStorePolicy:
    def test_store_rejects_partial_results(self, cache):
        study = Study((_scenario(),))
        result = study.run(workers=WORKERS)["cached"]
        holed = result.values.copy()
        holed[0, 0, 0, 0, 0] = np.nan
        assert cache.store(dataclasses.replace(result, values=holed)) is False
        assert cache.lookup(result.scenario) is None

    def test_store_rejects_window_shards(self, cache):
        study = Study((_scenario(),))
        shard = study.run_extension(2, 4, workers=WORKERS)["cached"]
        assert shard.trial_offset == 2
        assert cache.store(shard) is False

    def test_concurrent_first_stores_of_one_key(self, cache, monkeypatch):
        # Two writers of the same new entry, each holding its rename
        # until both have written: the interleaving in which a shared
        # temp-file name let one writer's rename move the other's file,
        # so the second rename raised FileNotFoundError.
        result = Study((_scenario(),)).run(workers=WORKERS)["cached"]
        both_written = threading.Barrier(2, timeout=30)
        real_replace = os.replace

        def paired_replace(src, dst):
            both_written.wait()
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", paired_replace)
        errors = []

        def writer():
            try:
                assert cache.store(result) is True
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        stored = cache.lookup(result.scenario)
        assert stored is not None
        assert np.array_equal(stored, result.values)
        path = cache.path_for(result.scenario.content_hash())
        assert [p.name for p in path.parent.iterdir()] == [path.name]

    @pytest.mark.parametrize(
        "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"]
    )
    def test_entry_mode_follows_the_umask(self, cache, umask, mode):
        # An entry is created like any other file of its writer: under
        # umask 022 a second user sharing the cache can read it (a
        # ``tempfile.mkstemp`` entry was 0o600 whatever the umask).
        study = Study((_scenario(),))
        previous = os.umask(umask)
        try:
            run_cached(study, cache, workers=1)
        finally:
            os.umask(previous)
        path = cache.path_for(study.scenarios[0].content_hash())
        assert stat.S_IMODE(path.stat().st_mode) == mode
        assert [p.name for p in path.parent.iterdir()] == [path.name]

    def test_store_keeps_the_widest_result(self, cache):
        wide = Study((_scenario(trials=10),)).run(workers=WORKERS)["cached"]
        narrow = Study((_scenario(trials=4),)).run(workers=WORKERS)["cached"]
        assert cache.store(wide) is True
        assert cache.store(narrow) is False  # does not regress coverage
        assert cache.lookup(wide.scenario).shape[-3] == 10

    def test_lookup_survives_corrupt_entries(self, cache):
        scenario = _scenario()
        key = scenario.content_hash()
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{ not json")
        assert cache.lookup(scenario) is None
        path.write_text(json.dumps({"format": "wrong/v9", "scenario_hash": key}))
        assert cache.lookup(scenario) is None
        path.write_text(
            json.dumps({"format": CACHE_FORMAT, "scenario_hash": "0" * 64})
        )
        assert cache.lookup(scenario) is None


def _edit_values(edit):
    """A mangling that rewrites the decoded value tensor's bytes."""

    def mangle(entry):
        values = np.frombuffer(base64.b64decode(entry["values"]), dtype="<f8").copy()
        entry["values"] = base64.b64encode(edit(values).tobytes()).decode("ascii")

    return mangle


def _plant_nan(values):
    values[3] = np.nan
    return values


#: Field-level manglings of a stored entry; each must read as a miss.
MANGLINGS = {
    "format": lambda e: e.update(format="repro-cache/v1"),
    "scenario_hash": lambda e: e.update(scenario_hash="0" * 64),
    "shape_rank": lambda e: e.update(shape=e["shape"][1:]),
    "shape_axes": lambda e: e.update(shape=[3] + e["shape"][1:]),
    "shape_zero": lambda e: e.update(shape=e["shape"][:2] + [0] + e["shape"][3:]),
    "shape_type": lambda e: e.update(shape=[float(n) for n in e["shape"]]),
    "values_missing": lambda e: e.pop("values"),
    "values_bad_base64": lambda e: e.update(values="not base64!"),
    "values_type": lambda e: e.update(values=[1.0, 0.0]),
    "values_truncated": _edit_values(lambda v: v[:-1]),
    "values_nan": _edit_values(_plant_nan),
}


@pytest.fixture(params=sorted(MANGLINGS))
def mangling(request):
    return MANGLINGS[request.param]


def _rewrite_entry(cache, scenario, edit):
    path = cache.path_for(scenario.content_hash())
    entry = json.loads(path.read_text())
    edit(entry)
    path.write_text(json.dumps(entry))


class TestMangledEntries:
    """A stored entry mangled field by field is a miss, then re-stored."""

    @pytest.fixture(scope="class")
    def cold_values(self):
        return Study((_scenario(),)).run(workers=1)["cached"].values

    def test_mangled_entry_is_a_miss_and_is_restored(self, cache, mangling, cold_values):
        study = Study((_scenario(),))
        run_cached(study, cache, workers=1)
        _rewrite_entry(cache, study.scenarios[0], mangling)
        assert cache.lookup(study.scenarios[0]) is None

        again = run_cached(study, cache, workers=1)
        assert again.provenance["cache"]["disposition"] == "miss"
        assert np.array_equal(again["cached"].values, cold_values)
        stored = cache.lookup(study.scenarios[0])
        assert stored is not None and np.array_equal(stored, cold_values)

    def test_nan_entry_is_not_served_or_stuck(self, cache, cold_values):
        # A NaN cell used to be served as a complete hit, an extension
        # kept it, and store then refused the NaN-bearing result, so
        # the entry never healed.
        study = Study((_scenario(),))
        run_cached(study, cache, workers=1)
        _rewrite_entry(cache, study.scenarios[0], MANGLINGS["values_nan"])
        again = run_cached(study, cache, workers=1)
        assert again.provenance["cache"]["disposition"] == "miss"
        assert np.array_equal(again["cached"].values, cold_values)
        _rewrite_entry(cache, study.scenarios[0], MANGLINGS["values_nan"])
        extended = Study((_scenario(trials=8),))
        ext = run_cached(extended, cache, workers=1)
        assert ext.provenance["cache"]["disposition"] == "miss"
        assert not np.isnan(ext["cached"].values).any()
        assert np.array_equal(ext["cached"].values, extended.run(workers=1)["cached"].values)
        assert cache.lookup(study.scenarios[0]).shape[-3] == 8

    def test_v1_entry_misses_and_is_replaced(self, cache, cold_values):
        # The JSON-list layout of the previous format, with a stored
        # fault history: a miss, replaced by a v2 entry.
        study = Study((_scenario(),))
        result = study.run(workers=1)["cached"]
        key = result.scenario.content_hash()
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps(
                {
                    "format": "repro-cache/v1",
                    "scenario_hash": key,
                    "result": result.to_dict(),
                    "faults": {"crashes": 3},
                }
            )
        )
        again = run_cached(study, cache, workers=1)
        assert again.provenance["cache"]["disposition"] == "miss"
        assert np.array_equal(again["cached"].values, cold_values)
        stored = json.loads(path.read_text())
        assert stored["format"] == CACHE_FORMAT == "repro-cache/v2"
        assert stored["shape"] == list(cold_values.shape)
        assert set(stored) == {"format", "scenario_hash", "scenario", "shape", "values"}
        assert run_cached(study, cache, workers=1).provenance["cache"]["disposition"] == "hit"


class TestStreamVersion:
    def test_bumped_stream_version_turns_a_hit_into_a_miss(self, cache, monkeypatch):
        study = Study((_scenario(),))
        cold = run_cached(study, cache, workers=WORKERS)
        bumped = STREAM_VERSION + 1
        monkeypatch.setattr("repro.study.scenario.STREAM_VERSION", bumped)
        monkeypatch.setattr("repro.study.result.STREAM_VERSION", bumped)
        again = run_cached(study, cache, workers=WORKERS)
        assert again.provenance["cache"]["disposition"] == "miss"
        assert again.provenance["cache"]["executed_units"] > 0
        assert np.array_equal(cold["cached"].values, again["cached"].values)


class TestReadPath:
    """Each request decodes each stored entry once and parses no result."""

    @staticmethod
    def _count(monkeypatch, owner, name, calls):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    def test_hit_does_one_lookup_and_no_store(self, cache, monkeypatch):
        study = Study((_scenario(),))
        run_cached(study, cache, workers=WORKERS)
        calls = {}
        for name in ("lookup", "store"):
            self._count(monkeypatch, ResultCache, name, calls)
        self._count(monkeypatch, ScenarioResult, "from_dict", calls)
        hit = run_cached(study, cache, workers=WORKERS)
        assert hit.provenance["cache"]["disposition"] == "hit"
        assert calls == {"lookup": 1}

    def test_extension_store_does_not_rebuild_the_entry(self, cache, monkeypatch):
        run_cached(Study((_scenario(trials=4),)), cache, workers=WORKERS)
        calls = {}
        for name in ("lookup", "store"):
            self._count(monkeypatch, ResultCache, name, calls)
        self._count(monkeypatch, ScenarioResult, "from_dict", calls)
        ext = run_cached(Study((_scenario(trials=6),)), cache, workers=WORKERS)
        assert ext.provenance["cache"]["disposition"] == "extension"
        assert calls == {"lookup": 1, "store": 1}
        assert cache.lookup(_scenario()).shape[-3] == 6

    def test_store_rereads_coverage_written_by_another_process(self, cache):
        wide = Study((_scenario(trials=10),)).run(workers=WORKERS)["cached"]
        narrow = Study((_scenario(trials=4),)).run(workers=WORKERS)["cached"]
        assert cache.store(narrow) is True
        ResultCache(cache.root).store(wide)  # a second handle on the store
        assert cache.store(narrow) is False
        assert cache.lookup(_scenario()).shape[-3] == 10


class TestShardedRoute:
    """``run_cached`` over two in-process trial shards per group."""

    @staticmethod
    def _run(study, cache, transport):
        return run_cached(
            study, cache, workers=WORKERS, transport=transport, shards=2
        )

    def test_miss_extension_hit_bit_identical(self, cache):
        transport = InProcessTransport(workers=WORKERS)
        short, full = Study((_scenario(),)), Study((_scenario(trials=10),))
        one_shot = full.run(workers=WORKERS)["cached"]
        prefix = short.run(workers=WORKERS)["cached"]
        assert np.array_equal(one_shot.truncated(6).values, prefix.values)

        cold = self._run(short, cache, transport)
        assert cold.provenance["cache"]["disposition"] == "miss"
        assert cold.provenance["shards"] == 2
        assert cold["cached"].scenario == short.scenarios[0]
        assert np.array_equal(cold["cached"].values, prefix.values)

        ext = self._run(full, cache, transport)
        assert ext.provenance["cache"]["disposition"] == "extension"
        assert ext.provenance["cache"]["delta_window"] == [6, 10]
        assert ext["cached"].scenario == full.scenarios[0]
        assert np.array_equal(ext["cached"].values, one_shot.values)

        for study, expected in ((full, one_shot), (short, prefix)):
            hit = self._run(study, cache, transport)
            assert hit.provenance["cache"]["disposition"] == "hit"
            assert hit.provenance["cache"]["executed_units"] == 0
            assert hit.provenance["units"] == 0
            assert np.array_equal(hit["cached"].values, expected.values)

    def test_chaos_faults_fold_exactly_once(self, cache):
        transport = InProcessTransport(workers=WORKERS, scheduler=_chaos_policy())
        short, full = Study((_scenario(),)), Study((_scenario(trials=10),))
        self._run(short, cache, transport)
        ext = self._run(full, cache, transport)
        assert ext.provenance["cache"]["disposition"] == "extension"
        # The delta alone, rerun outside the cache: chaos decisions are
        # seeded per (unit, attempt), so it reports the same faults —
        # and the extension reports nothing beyond them.
        delta = run_sharded(full, transport, shards=2, window=(6, 10))
        delta_faults = delta.provenance["faults"]
        assert delta_faults["crashes"] > 0
        for name in FaultReport._COUNTERS:
            assert ext.provenance["faults"][name] == delta_faults[name], name

        hit = self._run(full, cache, transport)
        assert hit.provenance["cache"]["disposition"] == "hit"
        assert "faults" not in hit.provenance


class TestBypass:
    def test_mixed_trial_counts_bypass(self, cache):
        study = Study(
            (
                _scenario(trials=4),
                dataclasses.replace(_scenario(trials=6), name="other"),
            )
        )
        result = run_cached(study, cache, workers=WORKERS)
        assert result.provenance["cache"]["disposition"] == "bypass"
        assert cache.lookup(study.scenarios[0]) is None
        # A transport cannot shard mixed counts: the bypass runs unsharded.
        sharded = run_cached(
            study, cache, transport=InProcessTransport(workers=WORKERS), shards=2
        )
        assert sharded.provenance["cache"]["disposition"] == "bypass"
        assert "shards" not in sharded.provenance
        for name in ("cached", "other"):
            assert np.array_equal(sharded[name].values, result[name].values)

    def test_rejects_non_cache(self):
        with pytest.raises(ParameterError, match="ResultCache"):
            run_cached(Study((_scenario(),)), cache="/tmp/nope", workers=1)


class TestCacheEvents:
    def test_dispositions_emit(self, cache):
        study = Study((_scenario(),))
        with events.capture_events(
            kinds=("cache_miss", "cache_hit", "cache_extension")
        ) as captured:
            run_cached(study, cache, workers=WORKERS)
            run_cached(study, cache, workers=WORKERS)
            run_cached(Study((_scenario(trials=8),)), cache, workers=WORKERS)
        kinds = [event.kind for event in captured]
        assert kinds == ["cache_miss", "cache_hit", "cache_extension"]
        assert captured[2].fields["delta_window"] == [6, 8]
