"""Chaos-injection harness: specs, determinism, and the middleware."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import InjectedFailure, ParameterError
from repro.simulation.faults import (
    CHAOS_ENV_VAR,
    STRATEGY_KINDS,
    ChaosSpec,
    FailureInjector,
    FaultStrategy,
    chaos_from_env,
    corrupt_payload,
    load_chaos,
)


class TestFaultStrategy:
    def test_round_trip(self):
        strategy = FaultStrategy(kind="partial", probability=0.3, max_attempt=2)
        assert FaultStrategy.from_dict(strategy.to_dict()) == strategy

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "explode", "probability": 0.5},
            {"kind": "crash", "probability": 1.5},
            {"kind": "crash", "probability": -0.1},
            {"kind": "delay", "probability": 0.5},
            {"kind": "crash", "probability": 0.5, "max_attempt": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            FaultStrategy(**kwargs)

    def test_unknown_dict_fields_rejected(self):
        with pytest.raises(ParameterError, match="unknown chaos strategy fields"):
            FaultStrategy.from_dict({"kind": "crash", "probability": 0.5, "p": 1})

    def test_eligibility_window(self):
        strategy = FaultStrategy(kind="crash", probability=1.0, max_attempt=2)
        assert strategy.eligible(0) and strategy.eligible(1)
        assert not strategy.eligible(2)
        unbounded = FaultStrategy(kind="crash", probability=1.0)
        assert unbounded.eligible(10**6)


class TestChaosSpec:
    def test_json_round_trip(self):
        spec = ChaosSpec(
            seed=7,
            strategies=(
                FaultStrategy(kind="crash", probability=0.3, max_attempt=2),
                FaultStrategy(kind="broken_pool", probability=0.5),
            ),
        )
        assert ChaosSpec.from_json(spec.to_json()) == spec

    def test_coerces_strategy_dicts(self):
        spec = ChaosSpec(seed=1, strategies=({"kind": "drop", "probability": 0.2},))
        assert spec.strategies == (FaultStrategy(kind="drop", probability=0.2),)

    def test_seed_validation(self):
        with pytest.raises(ParameterError):
            ChaosSpec(seed=-1)
        with pytest.raises(ParameterError):
            ChaosSpec(seed=True)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ParameterError, match="unknown chaos spec fields"):
            ChaosSpec.from_dict({"seed": 1, "strategy": []})


class TestFailureInjectorPlan:
    def test_decisions_are_deterministic(self):
        spec = ChaosSpec(
            seed=3,
            strategies=tuple(
                FaultStrategy(kind=kind, probability=0.5) for kind in STRATEGY_KINDS
            ),
        )
        a, b = FailureInjector(spec), FailureInjector(spec)
        for unit in range(20):
            for attempt in range(3):
                assert a.plan(unit, attempt) == b.plan(unit, attempt)

    def test_probability_extremes(self):
        always = ChaosSpec(seed=0, strategies=(FaultStrategy(kind="crash", probability=1.0),))
        never = ChaosSpec(seed=0, strategies=(FaultStrategy(kind="crash", probability=0.0),))
        assert all(FailureInjector(always).plan(u, 0).fired == ("crash",) for u in range(10))
        assert not any(FailureInjector(never).plan(u, 0).any for u in range(10))

    def test_max_attempt_caps_injection(self):
        spec = ChaosSpec(
            seed=0,
            strategies=(FaultStrategy(kind="crash", probability=1.0, max_attempt=2),),
        )
        injector = FailureInjector(spec)
        assert injector.plan(4, 0).any and injector.plan(4, 1).any
        assert not injector.plan(4, 2).any

    def test_strategies_decide_independently(self):
        spec = ChaosSpec(
            seed=9,
            strategies=(
                FaultStrategy(kind="crash", probability=1.0),
                FaultStrategy(kind="partial", probability=1.0),
                FaultStrategy(kind="drop", probability=1.0),
            ),
        )
        injection = FailureInjector(spec).plan(0, 0)
        assert injection.fired == ("crash", "partial", "drop")


class TestFailureInjectorApply:
    def test_crash_raises_injected_failure(self):
        spec = ChaosSpec(seed=0, strategies=(FaultStrategy(kind="crash", probability=1.0),))
        injector = FailureInjector(spec)
        injection = injector.plan(2, 1)
        with pytest.raises(InjectedFailure) as excinfo:
            injector.apply_before(injection, 2, 1, inline=False)
        assert excinfo.value.unit_index == 2
        assert excinfo.value.attempt == 1

    def test_broken_pool_degrades_to_crash_inline(self):
        # os._exit in the caller process would kill the test runner;
        # inline mode must degrade to a catchable crash instead.
        spec = ChaosSpec(
            seed=0, strategies=(FaultStrategy(kind="broken_pool", probability=1.0),)
        )
        injector = FailureInjector(spec)
        with pytest.raises(InjectedFailure):
            injector.apply_before(injector.plan(0, 0), 0, 0, inline=True)

    def test_drop_discards_payload(self):
        spec = ChaosSpec(seed=0, strategies=(FaultStrategy(kind="drop", probability=1.0),))
        injector = FailureInjector(spec)
        payload, dropped = injector.apply_after(
            injector.plan(0, 0), 0, 0, np.arange(3.0)
        )
        assert dropped and payload is None

    def test_partial_corrupts_payload_deterministically(self):
        spec = ChaosSpec(seed=5, strategies=(FaultStrategy(kind="partial", probability=1.0),))
        injector = FailureInjector(spec)
        original = np.arange(16.0)
        damaged_a, _ = injector.apply_after(injector.plan(1, 0), 1, 0, original.copy())
        damaged_b, _ = injector.apply_after(injector.plan(1, 0), 1, 0, original.copy())
        assert not np.array_equal(damaged_a, original)
        assert np.array_equal(damaged_a, damaged_b)


class TestCorruptPayload:
    def test_array_keeps_shape_but_changes_values(self):
        rng = np.random.default_rng(0)
        original = np.ones((4, 5))
        damaged = corrupt_payload(original, rng)
        assert damaged.shape == original.shape
        assert not np.array_equal(damaged, original)
        assert np.array_equal(original, np.ones((4, 5)))  # input untouched

    def test_non_array_replaced(self):
        assert corrupt_payload({"a": 1}, np.random.default_rng(0)) is None


def _strategy(**fields):
    return {"seed": 1, "strategies": [{"kind": "crash", "probability": 0.5, **fields}]}


#: Outside chaos input that must fail as ParameterError, never coerce.
MALFORMED_CHAOS = {
    "seed_float": {"seed": 2.9},
    "seed_bool": {"seed": True},
    "seed_str": {"seed": "x"},
    "probability_str": _strategy(probability="0.5"),
    "probability_bool": _strategy(probability=True),
    "probability_null": _strategy(probability=None),
    "probability_abc": _strategy(probability="abc"),
    "max_attempt_float": _strategy(max_attempt=2.7),
    "max_attempt_bool": _strategy(max_attempt=True),
    "max_attempt_str": _strategy(max_attempt="x"),
    "retired_strategy": {
        "strategies": [{"kind": "delay", "probability": 0.3, "delay": 0.1}]
    },
}


@pytest.fixture(params=sorted(MALFORMED_CHAOS))
def malformed_chaos(request):
    return MALFORMED_CHAOS[request.param]


def test_malformed_chaos_is_a_parameter_error(malformed_chaos):
    with pytest.raises(ParameterError):
        load_chaos(malformed_chaos)
    with pytest.raises(ParameterError):
        load_chaos(json.dumps(malformed_chaos))


class TestLoadChaos:
    def test_passthrough(self):
        spec = ChaosSpec(seed=1)
        assert load_chaos(None) is None
        assert load_chaos(spec) is spec

    def test_dict_and_inline_json(self):
        data = {"seed": 4, "strategies": [{"kind": "crash", "probability": 0.5}]}
        from_dict = load_chaos(data)
        from_inline = load_chaos('{"seed": 4, "strategies": [{"kind": "crash", "probability": 0.5}]}')
        assert from_dict == from_inline == ChaosSpec.from_dict(data)

    def test_file_path(self, tmp_path):
        spec = ChaosSpec(seed=11, strategies=(FaultStrategy(kind="drop", probability=0.1),))
        path = tmp_path / "chaos.json"
        path.write_text(spec.to_json())
        assert load_chaos(str(path)) == spec

    def test_missing_file_is_an_error(self, tmp_path):
        with pytest.raises(ParameterError, match="chaos spec file not found"):
            load_chaos(str(tmp_path / "nope.json"))

    def test_bad_inline_json_is_an_error(self):
        with pytest.raises(ParameterError, match="does not parse"):
            load_chaos('{"seed": ')

    def test_env_var(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV_VAR, raising=False)
        assert chaos_from_env() is None
        monkeypatch.setenv(CHAOS_ENV_VAR, '{"seed": 2, "strategies": []}')
        assert chaos_from_env() == ChaosSpec(seed=2)
