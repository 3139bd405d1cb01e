"""Tests for estimators and result containers."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import ExperimentError, SimulationError
from repro.simulation.estimators import BernoulliEstimate, wilson_interval
from repro.simulation.results import (
    CurvePoint,
    ExperimentResult,
    load_result,
    save_result,
)
from repro.study import MetricSpec, Scenario, StudyResult
from repro.study.result import ScenarioResult
from repro.study.scenario import STREAM_VERSION


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        low, high = wilson_interval(30, 100)
        assert low <= 0.3 <= high

    @given(st.integers(1, 500).flatmap(
        lambda n: st.tuples(st.integers(0, n), st.just(n))
    ))
    @settings(max_examples=100)
    def test_property_valid_interval(self, sn):
        s, n = sn
        low, high = wilson_interval(s, n)
        assert 0.0 <= low <= s / n <= high <= 1.0

    def test_narrows_with_trials(self):
        w1 = wilson_interval(5, 10)
        w2 = wilson_interval(500, 1000)
        assert (w2[1] - w2[0]) < (w1[1] - w1[0])

    def test_extreme_counts_nondegenerate(self):
        low, high = wilson_interval(0, 50)
        assert low == 0.0 and high > 0.0
        low, high = wilson_interval(50, 50)
        assert high == 1.0 and low < 1.0

    def test_invalid_inputs(self):
        with pytest.raises(SimulationError):
            wilson_interval(5, 0)
        with pytest.raises(SimulationError):
            wilson_interval(11, 10)
        with pytest.raises(SimulationError):
            wilson_interval(5, 10, z=0.0)


class TestBernoulliEstimate:
    def test_from_counts(self):
        est = BernoulliEstimate.from_counts(25, 100)
        assert est.estimate == 0.25
        assert est.ci_low < 0.25 < est.ci_high

    def test_stderr(self):
        est = BernoulliEstimate.from_counts(50, 100)
        assert est.stderr() == pytest.approx(math.sqrt(0.25 / 100))

    def test_contains(self):
        est = BernoulliEstimate.from_counts(50, 100)
        assert est.contains(0.5)
        assert not est.contains(0.99)

    def test_to_dict_roundtrip(self):
        est = BernoulliEstimate.from_counts(7, 20)
        assert BernoulliEstimate(**est.to_dict()) == est


class TestResultContainers:
    def _sample_result(self) -> ExperimentResult:
        pts = [
            CurvePoint(
                point={"K": 30.0},
                estimate=BernoulliEstimate.from_counts(3, 10),
                prediction=0.25,
            ),
            CurvePoint(
                point={"K": 40.0},
                estimate=BernoulliEstimate.from_counts(9, 10),
                prediction=0.95,
            ),
        ]
        return ExperimentResult(name="demo", config={"trials": 10}, points=pts)

    def test_gap(self):
        result = self._sample_result()
        assert result.points[0].gap() == pytest.approx(0.05)

    def test_gap_none_without_prediction(self):
        pt = CurvePoint(point={}, estimate=BernoulliEstimate.from_counts(1, 2))
        assert pt.gap() is None

    def test_max_abs_gap(self):
        assert self._sample_result().max_abs_gap() == pytest.approx(0.05)

    def test_json_roundtrip(self, tmp_path):
        result = self._sample_result()
        path = tmp_path / "out" / "demo.json"
        save_result(result, path)
        loaded = load_result(path)
        assert loaded == result

    def test_loaded_types(self, tmp_path):
        result = self._sample_result()
        path = tmp_path / "demo.json"
        save_result(result, path)
        loaded = load_result(path)
        assert isinstance(loaded.points[0].estimate, BernoulliEstimate)
        assert loaded.config["trials"] == 10


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
_DROP = object()
_SCENARIO_RESULT = ScenarioResult(
    Scenario(
        name="demo", num_nodes=10, pool_size=100, trials=2, ring_sizes=(5,),
        curves=((1, 1.0),), metrics=(MetricSpec("connectivity"),),
    ),
    np.zeros((1, 2, 1, 1)),
    ("connectivity",),
    trial_offset=2,
).to_dict()

#: A result written before the stream was versioned: no
#: ``stream_version``, and its scenario still names the retired ``kind``.
_PRE_VERSION_RESULT = {
    **{key: value for key, value in _SCENARIO_RESULT.items() if key != "stream_version"},
    "scenario": {**_SCENARIO_RESULT["scenario"], "kind": "sweep"},
}


def _experiment_payload(prediction=0.25, **estimate):
    """A one-point saved ExperimentResult with fields overridden."""
    est = {**BernoulliEstimate.from_counts(3, 10).to_dict(), **estimate}
    point = {"point": {"K": 30.0}, "estimate": est, "prediction": prediction}
    return {"name": "demo", "config": {"trials": 10}, "points": [point]}


@st.composite
def _mangled_payloads(draw):
    """A saved-result payload with fields kept, dropped or replaced by junk JSON."""

    def obj(fields):
        out = {}
        for key, valid in fields.items():
            choice = draw(st.sampled_from(("keep", "keep", "drop", "junk")))
            value = valid if choice == "keep" else _DROP if choice == "drop" else draw(_JSON)
            if value is not _DROP:
                out[key] = value
        return out

    estimate = obj(BernoulliEstimate.from_counts(3, 10).to_dict())
    point = obj({"point": {"K": 30.0}, "estimate": estimate, "prediction": 0.25})
    experiment = obj({"name": "demo", "config": {"trials": 10}, "points": [point]})
    scenario = obj(_SCENARIO_RESULT)
    study = obj({"provenance": {"deployments": 2}, "scenarios": [scenario]})
    loader, payload = draw(st.sampled_from((
        (ExperimentResult, experiment),
        (ScenarioResult, scenario),
        (StudyResult, study),
    )))
    return loader, draw(st.sampled_from((payload, [payload], draw(_JSON))))


class TestMalformedResultPayloads:
    @pytest.mark.parametrize(
        "payload, field",
        [
            ({}, "name"),
            ([], "JSON object"),
            ({"name": "x", "config": {}, "points": [{"point": {}}]}, "estimate"),
            ({"name": "x", "config": {}, "points": {}}, "points"),
            ({"name": "x", "config": [], "points": []}, "config"),
        ],
    )
    def test_named_field_in_error(self, payload, field):
        with pytest.raises(ExperimentError, match=field):
            ExperimentResult.from_dict(payload)

    @pytest.mark.parametrize(
        "loader, payload, field",
        [
            (ScenarioResult, {}, "'scenario'"),
            (ScenarioResult, [], "JSON object"),
            (ScenarioResult, {**_SCENARIO_RESULT, "scenario": []}, "'scenario'"),
            (ScenarioResult, {**_SCENARIO_RESULT, "scenario": {}}, "'scenario'"),
            (ScenarioResult, {**_SCENARIO_RESULT, "metric_labels": 3}, "metric_labels"),
            (ScenarioResult, {**_SCENARIO_RESULT, "values": [[1], "x"]}, "values"),
            (StudyResult, {}, "'scenarios'"),
            (StudyResult, [], "JSON object"),
            (StudyResult, {"scenarios": {}}, "'scenarios'"),
            (StudyResult, {"scenarios": [], "provenance": []}, "provenance"),
            (ScenarioResult, {**_SCENARIO_RESULT, "metric_labels": ["x"]}, "metric_labels"),
            (ScenarioResult, _PRE_VERSION_RESULT, f"version None.* version {STREAM_VERSION}"),
            (
                ScenarioResult,
                {**_SCENARIO_RESULT, "stream_version": STREAM_VERSION - 1},
                f"version {STREAM_VERSION - 1}.* version {STREAM_VERSION}",
            ),
            (ScenarioResult, {**_SCENARIO_RESULT, "stream_version": True}, "version True"),
        ],
    )
    def test_study_result_named_field_in_error(self, loader, payload, field):
        with pytest.raises(ExperimentError, match=field):
            loader.from_dict(payload)

    def test_load_result_raises_experiment_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "config": {}, "points": [{}]}))
        with pytest.raises(ExperimentError, match="point"):
            load_result(path)

    def test_load_result_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ExperimentError, match="bad.json") as info:
            load_result(path)
        assert isinstance(info.value.__cause__, json.JSONDecodeError)

    def test_study_result_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ExperimentError, match="bad.json") as info:
            StudyResult.load(path)
        assert isinstance(info.value.__cause__, json.JSONDecodeError)

    @given(_mangled_payloads())
    @example((ExperimentResult, _experiment_payload(prediction="abc")))
    @example((ExperimentResult, _experiment_payload(estimate="0.3")))
    @settings(max_examples=300, deadline=None)
    def test_malformed_payloads_raise_only_experiment_error(self, case):
        loader, payload = case
        try:
            result = loader.from_dict(payload)
        except ExperimentError:
            return
        assert isinstance(result, loader)
        if isinstance(result, ExperimentResult):
            result.max_abs_gap()
