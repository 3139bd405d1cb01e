"""Compare two sets of perfbench result lines against the BENCHMARK.json bounds.

    python3 benchmarks/compare.py parent.jsonl change.jsonl
    python3 benchmarks/compare.py both_sides.json

A record file holds one JSON object per line, or one JSON array of
them.  Each record wraps the last line ``perfbench/run.py`` prints with
where it came from::

    {"workload": "mindegree_full", "seed": 3, "side": "parent", "trace": 0,
     "result": {"correct": true, "attempted": 9, "failed": 0,
                "metrics": {"wall_s": {"value": 5.1, "unit": "s"}, ...}}}

``side`` is ``"parent"`` or ``"change"``; ``trace`` (default 0) is the
``--trace`` flag of the run.  The records of all files given are
pooled.  Parent and change runs pair up by workload, trace flag, seed
and order of appearance, so interleaved runs on one host compare like
with like.

For every workload and every metric that both sides report, the script
prints the parent and change medians with their quartiles, the change
of the median, how many pairs the change won and a verdict:

* ``regressed`` — the median is worse than the parent's by more than
  the metric's ``end_to_end`` bound in ``BENCHMARK.json``;
* ``improved`` — over at least 10 pairs, the change won at least 9 of
  every 10, and its median is better than the parent's by more than the
  parent's interquartile range;
* ``unresolved`` — neither, but the runs of one side spread (quartile
  distance over median) wider than the bound, and not every change run
  beats every parent run, so the bound cannot be told from noise;
* ``within bound`` — none of these.

Per-layer metrics have no bound, so they can only read ``improved`` or
``within bound``.  ``BENCHMARK.json`` is only read.  The exit code is 1
when a metric regressed or a run failed its output checks, else 0.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
WIN_SHARE = 0.9
MIN_PAIRS = 10


def load_records(path: pathlib.Path) -> List[dict]:
    """The records of one file."""
    text = path.read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = [json.loads(line) for line in text.splitlines() if line.strip()]
    records = data if isinstance(data, list) else [data]
    for record in records:
        if not isinstance(record, dict) or record.get("side") not in SIDES:
            raise SystemExit(f"{path}: record without a parent/change side: {record}")
    return records


def metric_specs(benchmark: dict) -> Dict[str, Tuple[str, Optional[float]]]:
    """Metric name → (better direction, relative bound or None)."""
    specs: Dict[str, Tuple[str, Optional[float]]] = {}
    for spec in benchmark.get("per_layer", []):
        specs[spec["name"]] = (spec["better"], None)
    for spec in benchmark.get("end_to_end", []):
        specs[spec["name"]] = (spec["better"], float(spec["bound"]))
    return specs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def pairs_of(records: Iterable[dict]) -> Dict[str, List[Tuple[dict, dict]]]:
    """Workload label → [(parent result, change result)] in run order.

    Traced runs are labelled ``"<workload> --trace 1"``, apart from the
    untraced runs of the same workload.
    """
    runs: Dict[Tuple[str, object, str], List[dict]] = defaultdict(list)
    for record in records:
        label = record["workload"]
        if record.get("trace", 0):
            label += " --trace 1"
        runs[(label, record.get("seed"), record["side"])].append(record["result"])
    paired: Dict[str, List[Tuple[dict, dict]]] = defaultdict(list)
    for (label, seed, side), results in runs.items():
        if side != "parent":
            continue
        for pair in zip(results, runs.get((label, seed, "change"), [])):
            paired[label].append(pair)
    return dict(paired)


def _spread(q: Tuple[float, float, float]) -> float:
    return (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0


def compare_metric(
    base: Sequence[float],
    new: Sequence[float],
    better: str,
    bound: Optional[float],
) -> Dict[str, object]:
    """Medians, quartiles, pair wins and the verdict of one metric."""
    sign = 1.0 if better == "lower" else -1.0
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    wins = sum(1 for b, c in zip(base, new) if sign * (c - b) < 0)
    change = (nmed - bmed) / bmed if bmed else 0.0
    # Every change run beats every parent run.
    separated = max(new) < min(base) if sign > 0 else min(new) > max(base)
    if bound is not None and sign * change > bound:
        verdict = "regressed"
    elif (
        len(base) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(base)
        and sign * (bmed - nmed) > bq3 - bq1
    ):
        verdict = "improved"
    elif (
        bound is not None
        and max(_spread((bq1, bmed, bq3)), _spread((nq1, nmed, nq3))) > bound
        and not separated
    ):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "parent": (bq1, bmed, bq3),
        "change": (nq1, nmed, nq3),
        "relative_change": change,
        "wins": wins,
        "pairs": len(base),
        "bound": bound,
        "verdict": verdict,
    }


def compare(records: Sequence[dict], benchmark: dict) -> Dict[str, Dict[str, dict]]:
    """Workload → metric → :func:`compare_metric` row."""
    specs = metric_specs(benchmark)
    table: Dict[str, Dict[str, dict]] = {}
    for workload, pairs in pairs_of(records).items():
        rows: Dict[str, dict] = {}
        shared = set.intersection(*(set(r["metrics"]) for pair in pairs for r in pair))
        for name in [spec for spec in specs if spec in shared]:
            better, bound = specs[name]
            base = [p["metrics"][name]["value"] for p, _ in pairs]
            new = [c["metrics"][name]["value"] for _, c in pairs]
            rows[name] = compare_metric(base, new, better, bound)
        table[workload] = rows
    return table


def failed_runs(records: Sequence[dict]) -> List[str]:
    return [
        f"{r['side']} {r['workload']} seed {r.get('seed')}"
        for r in records
        if not r["result"].get("correct", False) or r["result"].get("failed", 0)
    ]


def render(table: Dict[str, Dict[str, dict]]) -> str:
    def fmt(q: Tuple[float, float, float]) -> str:
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    lines = []
    for workload, rows in table.items():
        lines.append(workload)
        for name, row in rows.items():
            bound = "-" if row["bound"] is None else f"{row['bound']:.0%}"
            lines.append(
                f"  {name:36} parent {fmt(row['parent']):28} "
                f"change {fmt(row['change']):28} "
                f"{row['relative_change']:+7.1%}  wins {row['wins']}/{row['pairs']}  "
                f"bound {bound:>4}  {row['verdict']}"
            )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", type=pathlib.Path, help="record files")
    parser.add_argument("--benchmark", type=pathlib.Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    records = [record for path in args.files for record in load_records(path)]
    table = compare(records, json.loads(args.benchmark.read_text()))
    print(render(table))
    failed = failed_runs(records)
    for run in failed:
        print(f"FAILED output checks: {run}")
    regressed = any(
        row["verdict"] == "regressed" for rows in table.values() for row in rows.values()
    )
    return 1 if regressed or failed else 0


if __name__ == "__main__":
    sys.exit(main())
