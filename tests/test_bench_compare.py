"""``benchmarks/compare.py`` on synthetic perfbench records."""

from __future__ import annotations

import json

import pytest

from benchmarks.compare import ROOT, compare, compare_metric, main, quartiles

BENCHMARK = {
    "end_to_end": [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "deployments_per_s", "better": "higher", "bound": 0.25},
    ],
    "per_layer": [{"name": "graphs.flow_scan.self_s", "better": "lower"}],
}


def _record(side, seed, wall, workload="w", correct=True, **extra):
    metrics = {
        "wall_s": {"value": wall, "unit": "s"},
        "deployments_per_s": {"value": 100.0 / wall, "unit": "1/s"},
        **{name: {"value": value, "unit": "s"} for name, value in extra.items()},
    }
    result = {"correct": correct, "attempted": 3, "failed": 0 if correct else 1,
              "metrics": metrics}
    return {"workload": workload, "seed": seed, "side": side, "result": result}


def _pairs(parent_walls, change_walls, **kwargs):
    return [
        record
        for seed, (b, c) in enumerate(zip(parent_walls, change_walls))
        for record in (_record("parent", seed, b, **kwargs), _record("change", seed, c, **kwargs))
    ]


class TestVerdicts:
    def test_quartiles_of_one_value(self):
        assert quartiles([2.0]) == (2.0, 2.0, 2.0)

    def test_clear_gain_is_improved(self):
        parent = [5.0, 5.2, 5.4, 5.1, 5.3, 5.0, 5.2, 5.5, 5.1, 5.3]
        change = [2.6, 2.7, 2.5, 2.8, 2.6, 2.6, 2.7, 2.9, 2.5, 2.6]
        rows = compare(_pairs(parent, change), BENCHMARK)["w"]
        assert rows["wall_s"]["verdict"] == "improved"
        assert rows["wall_s"]["wins"] == 10 and rows["wall_s"]["pairs"] == 10
        assert rows["wall_s"]["relative_change"] < -0.4
        # Higher-is-better metrics win the same pairs.
        assert rows["deployments_per_s"]["verdict"] == "improved"

    def test_beyond_the_bound_is_regressed(self):
        rows = compare(_pairs([1.0, 1.1, 0.9], [1.4, 1.5, 1.3]), BENCHMARK)["w"]
        assert rows["wall_s"]["verdict"] == "regressed"
        assert rows["deployments_per_s"]["verdict"] == "regressed"

    def test_noise_is_within_bound(self):
        parent = [1.0, 1.2, 0.8, 1.1, 0.9]
        change = [0.95, 1.25, 0.85, 1.0, 1.0]
        row = compare(_pairs(parent, change), BENCHMARK)["w"]["wall_s"]
        assert row["verdict"] == "within bound"

    def test_few_wins_are_not_improved(self):
        # A lower median, but the change wins only 8 of 10 pairs.
        base = [1.0] * 10
        row = compare_metric(base, [0.5] * 8 + [1.1] * 2, "lower", 0.25)
        assert row["wins"] == 8 and row["verdict"] == "within bound"

    def test_few_pairs_are_not_improved(self):
        row = compare_metric([1.0, 1.1, 0.9], [0.5, 0.5, 0.5], "lower", 0.25)
        assert row["wins"] == 3 and row["verdict"] == "within bound"

    def test_spread_wider_than_the_bound_is_unresolved(self):
        parent = [1.0, 2.0, 1.0, 2.0, 1.5]
        change = [1.1, 2.1, 0.9, 1.9, 1.6]
        row = compare_metric(parent, change, "lower", 0.25)
        assert row["verdict"] == "unresolved"
        # ... unless every change run beats every parent run.
        row = compare_metric(parent, [0.5, 0.6, 0.55, 0.5, 0.6], "lower", 0.25)
        assert row["verdict"] == "within bound"

    def test_per_layer_metrics_have_no_bound(self):
        records = _pairs([1.0, 1.0], [1.0, 1.0], **{"graphs.flow_scan.self_s": 1.0})
        for record in records:
            if record["side"] == "change":
                record["result"]["metrics"]["graphs.flow_scan.self_s"]["value"] = 9.0
        row = compare(records, BENCHMARK)["w"]["graphs.flow_scan.self_s"]
        assert row["bound"] is None and row["verdict"] == "within bound"

    def test_pairs_match_workload_trace_and_seed(self):
        records = _pairs([1.0], [0.5]) + _pairs([2.0], [2.0], workload="v")
        traced = _pairs([3.0], [3.0], **{"graphs.flow_scan.self_s": 1.0})
        for record in traced:
            record["trace"] = 1
        table = compare((records + traced)[::-1], BENCHMARK)
        assert table["w"]["wall_s"]["change"][1] == 0.5
        assert table["v"]["wall_s"]["pairs"] == 1
        assert "graphs.flow_scan.self_s" not in table["w"]
        assert table["w --trace 1"]["graphs.flow_scan.self_s"]["pairs"] == 1


class TestCommandLine:
    def test_one_array_file_with_both_sides(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(_pairs([5.0, 5.2, 5.1] * 4, [2.5, 2.6, 2.4] * 4)))
        bench = tmp_path / "BENCHMARK.json"
        bench.write_text(json.dumps(BENCHMARK))
        assert main([str(path), "--benchmark", str(bench)]) == 0
        out = capsys.readouterr().out
        assert "wall_s" in out and "improved" in out and "wins 12/12" in out

    def test_two_line_files_and_failures(self, tmp_path, capsys):
        parent = tmp_path / "parent.jsonl"
        change = tmp_path / "change.jsonl"
        rows = _pairs([1.0, 1.0], [1.0, 1.0])
        parent.write_text("\n".join(json.dumps(r) for r in rows[0::2]))
        bad = [dict(r, result=dict(r["result"], correct=False)) for r in rows[1::2]]
        change.write_text("\n".join(json.dumps(r) for r in bad))
        bench = tmp_path / "BENCHMARK.json"
        bench.write_text(json.dumps(BENCHMARK))
        assert main([str(parent), str(change), "--benchmark", str(bench)]) == 1
        assert "FAILED output checks: change w seed 0" in capsys.readouterr().out

    def test_reads_the_repository_bounds(self):
        bounds = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = {spec["name"] for spec in bounds["end_to_end"]}
        assert {"wall_s", "peak_rss_mb"} <= names
        with pytest.raises(SystemExit):
            main([str(ROOT / "BENCHMARK.json")])  # not a record file
