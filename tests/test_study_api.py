"""Scenario/Study API: JSON round-trip, validation, grouping.

Covers the satellite guarantees of the declarative redesign:

* ``Scenario -> to_json -> from_json -> run`` equals running the
  directly constructed scenario (bit-exact);
* malformed configs are rejected with clear ``ParameterError`` /
  ``ExperimentError`` messages;
* deployment grouping: scenarios sharing a family run on shared
  deployments (coupled estimates), distinct families do not.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import ExperimentError, ParameterError
from repro.study import MetricSpec, Scenario, Study, render_study_result, run_scenario


def small_scenario(**overrides) -> Scenario:
    base = dict(
        name="small",
        num_nodes=100,
        pool_size=1500,
        ring_sizes=(25, 32),
        curves=((2, 1.0), (2, 0.5)),
        metrics=(MetricSpec("connectivity"), MetricSpec("degree_count", h=0)),
        trials=5,
        seed=11,
    )
    base.update(overrides)
    return Scenario(**base)


class TestJsonRoundTrip:
    def test_scenario_round_trip_equality(self):
        scenario = small_scenario()
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_metricspec_round_trip(self):
        for spec in (
            MetricSpec("connectivity"),
            MetricSpec("k_connectivity", k=2),
            MetricSpec("degree_count", h=3),
            MetricSpec("attack_compromised", captured=7),
        ):
            assert MetricSpec.from_dict(spec.to_dict()) == spec

    def test_round_tripped_scenario_runs_identically(self):
        scenario = small_scenario()
        direct = run_scenario(scenario, workers=1)
        tripped = run_scenario(Scenario.from_json(scenario.to_json()), workers=1)
        assert np.array_equal(direct.values, tripped.values)

    def test_study_round_trip(self):
        study = Study((small_scenario(), small_scenario(name="other", seed=12)))
        assert Study.from_json(study.to_json()) == study

    def test_study_accepts_bare_list_and_single_object(self):
        data = small_scenario().to_dict()
        assert Study.from_dict(data).scenarios[0].name == "small"
        assert Study.from_dict([data]).scenarios[0].name == "small"

    def test_study_result_round_trip(self):
        from repro.study import StudyResult

        result = Study((small_scenario(),)).run(workers=1)
        tripped = StudyResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert np.array_equal(tripped["small"].values, result["small"].values)
        assert tripped["small"].scenario == small_scenario()

    @pytest.mark.parametrize(
        "key, value",
        [("units", "x"), ("faults", [1, 2]), ("units", -5), ("deployments", True)],
    )
    def test_study_result_rejects_malformed_work_sums(self, key, value):
        # Loaded, each would fail untyped in merge or fold a negative
        # count (-5 + 1 units = -4).
        from repro.study import StudyResult

        data = Study((small_scenario(),)).run(workers=1).to_dict()
        data["provenance"][key] = value
        with pytest.raises(ExperimentError, match=key):
            StudyResult.from_dict(data)


@pytest.fixture(
    params=[
        ("trials", 2.7),
        ("trials", True),
        ("trials", "3"),
        ("seed", 1.5),
        ("seed", True),
        ("seed", "7"),
        ("num_nodes", 100.5),
        ("num_nodes", True),
        ("num_nodes", "100"),
    ],
    ids=lambda case: f"{case[0]}={case[1]!r}",
)
def malformed_int_field(request):
    """One integer field of a scenario JSON replaced by a non-integer."""
    return request.param


#: Scenario fields that no longer exist, with a value a stale file holds.
RETIRED_FIELDS = {
    "kernel_backend": "reference",
    "kind": "sweep",
    "protocol": "coupling",
    "protocol_params": {"key_ring_size": 40, "q": 2},
}


class TestValidation:
    def test_from_dict_rejects_non_int_fields(self, malformed_int_field):
        # Truncating 2.7 -> 2 or true -> 1 would silently run a
        # different scenario under a different content hash.
        field, value = malformed_int_field
        data = {**small_scenario().to_dict(), field: value}
        with pytest.raises(ParameterError, match=field):
            Scenario.from_dict(data)

    @pytest.mark.parametrize("field", list(RETIRED_FIELDS))
    def test_retired_field_is_unknown(self, field):
        # Retired knobs fail loudly instead of being silently ignored.
        data = {**small_scenario().to_dict(), field: RETIRED_FIELDS[field]}
        with pytest.raises(ParameterError, match="unknown scenario fields"):
            Scenario.from_dict(data)

    def test_params_dict_round_trip(self):
        from repro.params import QCompositeParams

        params = QCompositeParams(
            num_nodes=50, key_ring_size=20, pool_size=500, overlap=2,
            channel_prob=0.7,
        )
        assert QCompositeParams.from_dict(params.to_dict()) == params
        with pytest.raises(ParameterError, match="unknown parameter fields"):
            QCompositeParams.from_dict({**params.to_dict(), "bogus": 1})

    def test_unknown_metric_kind(self):
        with pytest.raises(ParameterError, match="unknown metric kind"):
            MetricSpec("frobnication")

    def test_unread_metric_parameter_rejected(self):
        with pytest.raises(ParameterError, match="does not read 'captured'"):
            MetricSpec("connectivity", captured=50)
        with pytest.raises(ParameterError, match="does not read 'h'"):
            MetricSpec("k_connectivity", k=2, h=1)

    def test_study_run_clamps_nonpositive_workers(self):
        result = Study((small_scenario(),)).run(workers=0)
        assert result.provenance["workers"] == 1
        assert result["small"].values.shape == (2, 5, 2, 2)

    def test_unknown_scenario_field(self):
        with pytest.raises(ParameterError, match="unknown scenario fields"):
            Scenario.from_dict({"name": "x", "num_nodes": 10, "pool_size": 100,
                                "trials": 1, "bogus": 3})

    def test_missing_required_fields(self):
        with pytest.raises(ParameterError, match="missing required fields"):
            Scenario.from_dict({"name": "x"})

    def test_empty_grid_rejected(self):
        with pytest.raises(ParameterError, match="ring_sizes"):
            small_scenario(ring_sizes=())
        with pytest.raises(ParameterError, match="curves"):
            small_scenario(curves=())
        with pytest.raises(ParameterError, match="metrics"):
            small_scenario(metrics=())

    def test_invalid_key_parameters(self):
        with pytest.raises(ParameterError):
            small_scenario(ring_sizes=(2,), curves=((3, 1.0),))

    def test_bad_channel_and_kind(self):
        with pytest.raises(ParameterError, match="unknown channel"):
            small_scenario(channel="carrier-pigeon")
        # Scenario kinds are retired: every scenario is a sweep.
        with pytest.raises(ParameterError, match="unknown scenario fields"):
            Scenario.from_dict({**small_scenario().to_dict(), "kind": "vibes"})

    def test_disk_marginal_cap(self):
        with pytest.raises(ParameterError, match="pi/4"):
            small_scenario(channel="disk", curves=((2, 0.9),))

    def test_capture_needs_survivors(self):
        with pytest.raises(ParameterError, match="survive"):
            small_scenario(
                metrics=(MetricSpec("resilient_connectivity", captured=99),)
            )

    def test_duplicate_scenario_names(self):
        with pytest.raises(ParameterError, match="duplicate scenario names"):
            Study((small_scenario(), small_scenario()))

    def test_non_json_text(self):
        with pytest.raises(ParameterError, match="does not parse"):
            Scenario.from_json("{not json")

    def test_duplicate_metrics(self):
        with pytest.raises(ParameterError, match="duplicate metrics"):
            small_scenario(
                metrics=(MetricSpec("connectivity"), MetricSpec("connectivity"))
            )


class TestGroupingAndResults:
    def test_shared_family_groups_once(self):
        a = small_scenario(name="a")
        b = small_scenario(name="b", curves=((3, 1.0),),
                           metrics=(MetricSpec("connectivity"),))
        study = Study((a, b))
        plans = study.compile()
        assert len(plans) == 1
        assert [s.name for s in plans[0].scenarios] == ["a", "b"]
        assert plans[0].q_mins == (2,)

    def test_distinct_families_do_not_group(self):
        a = small_scenario(name="a")
        b = small_scenario(name="b", seed=999)
        assert len(Study((a, b)).compile()) == 2

    def test_grouped_curves_are_coupled(self):
        # Same (q, p) curve declared in two grouped scenarios must see
        # identical deployments, hence identical per-trial outcomes.
        a = small_scenario(name="a", curves=((2, 0.5),),
                           metrics=(MetricSpec("connectivity"),))
        b = small_scenario(name="b", curves=((2, 0.5),),
                           metrics=(MetricSpec("connectivity"),))
        result = Study((a, b)).run(workers=1)
        assert np.array_equal(result["a"].values, result["b"].values)

    def test_result_lookup_errors(self):
        result = Study((small_scenario(),)).run(workers=1)
        with pytest.raises(ExperimentError, match="no scenario"):
            result["missing"]
        with pytest.raises(ExperimentError, match="not measured"):
            result["small"].bernoulli("k_connectivity[k=2]", (2, 1.0), 25)
        with pytest.raises(ExperimentError, match="not an indicator"):
            # degree counts exceed {0, 1} at this scale
            result["small"].bernoulli("degree_count[h=0]", (2, 0.5), 25)

    def test_render_smoke(self):
        result = Study((small_scenario(),)).run(workers=1)
        text = render_study_result(result)
        assert "scenario 'small'" in text
        assert "connectivity" in text
