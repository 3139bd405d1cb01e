"""Tests for the Monte Carlo engine (determinism across worker counts)."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.simulation.engine import default_workers, run_trials, trials_from_env


def _draw_trial(rng: np.random.Generator) -> float:
    return float(rng.random())


def _sum_trial(scale: float, rng: np.random.Generator) -> float:
    return scale * float(rng.random())


class TestRunTrials:
    def test_outcome_count(self):
        assert len(run_trials(_draw_trial, 7, seed=1, workers=1)) == 7

    def test_serial_deterministic(self):
        a = run_trials(_draw_trial, 10, seed=3, workers=1)
        b = run_trials(_draw_trial, 10, seed=3, workers=1)
        assert a == b

    def test_parallel_matches_serial(self):
        serial = run_trials(_draw_trial, 16, seed=5, workers=1)
        parallel = run_trials(_draw_trial, 16, seed=5, workers=4)
        assert serial == parallel

    def test_different_seeds_differ(self):
        a = run_trials(_draw_trial, 5, seed=1, workers=1)
        b = run_trials(_draw_trial, 5, seed=2, workers=1)
        assert a != b

    def test_partial_is_picklable_across_workers(self):
        out = run_trials(functools.partial(_sum_trial, 2.0), 8, seed=7, workers=2)
        assert len(out) == 8
        assert all(0.0 <= v <= 2.0 for v in out)

    def test_workers_capped_by_trials(self):
        # More workers than trials must not break or duplicate work.
        out = run_trials(_draw_trial, 3, seed=9, workers=16)
        assert out == run_trials(_draw_trial, 3, seed=9, workers=1)

    def test_zero_trials_raises(self):
        with pytest.raises(SimulationError):
            run_trials(_draw_trial, 0)

    def test_bad_workers_raises(self):
        with pytest.raises(SimulationError):
            run_trials(_draw_trial, 5, workers=0)

    def test_none_seed_reproducible(self):
        # Contract: seed=None pins root entropy to 0.
        a = run_trials(_draw_trial, 4, seed=None, workers=1)
        b = run_trials(_draw_trial, 4, seed=0, workers=1)
        assert a == b


class TestEnvKnobs:
    def test_default_workers_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3

    def test_default_workers_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(SimulationError):
            default_workers()

    def test_default_workers_not_an_integer(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "four")
        with pytest.raises(SimulationError, match="REPRO_WORKERS"):
            default_workers()

    def test_trials_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRIALS", raising=False)
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert trials_from_env(60, full=500) == 60

    def test_trials_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRIALS", "123")
        assert trials_from_env(60, full=500) == 123

    def test_trials_full_mode(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRIALS", raising=False)
        monkeypatch.setenv("REPRO_FULL", "1")
        assert trials_from_env(60, full=500) == 500

    def test_trials_env_beats_full(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRIALS", "10")
        monkeypatch.setenv("REPRO_FULL", "1")
        assert trials_from_env(60, full=500) == 10

    def test_trials_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRIALS", "0")
        with pytest.raises(SimulationError):
            trials_from_env(60)

    def test_trials_not_an_integer(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRIALS", "1e3")
        with pytest.raises(SimulationError, match="REPRO_TRIALS"):
            trials_from_env(60)
