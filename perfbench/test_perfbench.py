"""Self-tests of the benchmark, run at tiny sizes."""

from __future__ import annotations

import json
import math
import pathlib

import pytest

from perfbench import run, tracing

SPEC = json.loads((pathlib.Path(run.__file__).parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(tmp_path, workload, trace, digests=None):
    return run.run_benchmark(
        workload, 0, 0, trace, digests=digests or {}, tiny=True, scratch_root=tmp_path,
    )


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(tmp_path, workload, trace):
    result, _ = _run(tmp_path, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in listed}
    assert all(math.isfinite(entry["value"]) for entry in result["metrics"].values())
    if trace:  # compute layers are seen even where pool workers run them
        assert result["metrics"]["kernels.overlap_counts.calls"]["value"] > 0


def test_corrupted_stored_digest_fails_the_run(tmp_path):
    _, notes = _run(tmp_path, "figure1_quick", False)
    good = notes[-1]["digest"]
    result, _ = _run(tmp_path, "figure1_quick", False, {"figure1_quick": {"0": good}})
    assert result["correct"]
    bad = good[:-1] + ("1" if good[-1] == "0" else "0")
    result, _ = _run(tmp_path, "figure1_quick", False, {"figure1_quick": {"0": bad}})
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_traced_span_names_match_the_layer_table(tmp_path):
    import repro.study.compiler as compiler

    names = {m["name"] for m in SPEC["per_layer"]}
    for span in tracing.span_names():
        assert any(name.startswith(span + ".") for name in names), span
    original = compiler.sample_deployment
    _run(tmp_path, "mindegree_full", True)
    assert compiler.sample_deployment is original  # wrappers are removed
