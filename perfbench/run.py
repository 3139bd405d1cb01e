"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload figure1_quick --seed 0 --seconds 30 --trace 0

Set-up (imports, building the studies, spawning the warm pool, one tiny
warm-up request) is timed first and repeated; then the workload runs as a
closed loop with one client for ``--seconds``.  Every iteration's outputs
are checked: value tensors are hashed and compared with the digest stored
in ``digests.json`` for the seed (or, for seeds not stored, with the first
iteration's and the one-shot reference's digest).

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the first half of the time runs untraced and the second half with layer
spans installed (see ``tracing.py``); the metrics are the per-layer split,
averaged per iteration, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it are
JSON notes (the host stamp, the digest, where layers ran).  The exit code is
0 when every check passed, 1 when one failed and 2 when the program cannot
be imported from ``src/``.  ``--record-digests N`` rewrites ``digests.json``
for seeds ``0..N-1``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
DIGESTS = pathlib.Path(__file__).resolve().parent / "digests.json"
SETUPS = 5  # set-ups per run; setup_s is their median

END_TO_END = {
    "wall_s": "s",
    "deployments_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith((".s", "self_s", "overhead_s")):
        return "s"
    if name.endswith(("_fraction", "coverage")):
        return "fraction"
    if name.endswith("_per_request"):
        return "ratio"
    return "count"


def _stop_pool() -> None:
    """Shut the warm pool down and wait for its processes to exit."""
    from repro.simulation.pool import shutdown_pools

    shutdown_pools()
    for child in multiprocessing.active_children():
        child.join(30)


def _measure(workload, seconds: float, scratch: pathlib.Path) -> List:
    records = []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        records.append(workload.iteration(scratch))
    return records


def _import_seconds() -> float:
    """Time a fresh interpreter takes to import the program and workloads."""
    code = (
        "import sys, time; sys.path[:0] = sys.argv[1:]; start = time.perf_counter(); "
        "import perfbench.workloads; print(time.perf_counter() - start)"
    )
    child = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(ROOT)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return float(child.stdout)


def _set_up(cls, seed: int, tiny: bool, scratch: pathlib.Path):
    """Import, build the workload, fork a fresh pool, make one tiny request."""
    import_s = _import_seconds()
    start = time.perf_counter()
    workload = cls(seed, tiny)
    if cls.workers > 1:
        _stop_pool()
    cls(0, tiny=True).iteration(scratch)
    return workload, import_s + time.perf_counter() - start


def _traced(cls, workload, seconds: float, scratch: pathlib.Path):
    """Records and span totals of a run with every layer wrapped."""
    from perfbench import tracing

    worker_dir = scratch / "trace"
    worker_dir.mkdir()
    tracer = tracing.Tracer(worker_dir)
    try:
        with tracing.installed(tracer):
            _stop_pool()  # the warm-up forks workers that carry the wrappers
            cls(0, tiny=True).iteration(scratch)
            tracer.reset()
            before = tracing.worker_totals(worker_dir)
            records = _measure(workload, seconds, scratch)
            in_workers = tracing.subtract(tracing.worker_totals(worker_dir), before)
    finally:
        _stop_pool()  # no wrapped worker may outlive the wrappers
    return records, tracing.add(tracer.snapshot(), in_workers)


def layer_metrics(spans: Dict, traced: Sequence, untraced: Sequence) -> Dict[str, float]:
    """The per-layer split, per iteration, from traced span totals."""
    n = len(traced)
    sec, own, cnt = (spans.get(f, {}) for f in ("seconds", "self_seconds", "counts"))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def s(name: str) -> float:
        return sec.get(name, 0.0) / n

    def self_s(name: str) -> float:
        return own.get(name, 0.0) / n

    def count(name: str) -> float:
        return cnt.get(name, 0.0) / n

    cells = cnt.get("study.cells", 0.0)
    walls = [r.wall for r in traced]
    requests = sum(r.requests for r in traced)
    return {
        "keygraphs.sample_rings.s": s("keygraphs.sample_rings"),
        "keygraphs.sample_rings.calls": count("keygraphs.sample_rings.calls"),
        "kernels.overlap_counts.s": s("kernels.overlap_counts"),
        "kernels.overlap_counts.calls": count("kernels.overlap_counts.calls"),
        "kernels.overlap_counts.pairs": count("kernels.overlap_counts.pairs"),
        "kernels.sparse_certificate.s": s("kernels.sparse_certificate"),
        "kernels.sparse_certificate.calls": count("kernels.sparse_certificate.calls"),
        "kernels.sparse_certificate.edges_in": count("kernels.sparse_certificate.edges_in"),
        "kernels.sparse_certificate.edges_out": count("kernels.sparse_certificate.edges_out"),
        "kernels.k_connected.s": s("kernels.k_connected"),
        "kernels.k_connected.calls": count("kernels.k_connected.calls"),
        "graphs.is_connected.s": s("graphs.is_connected"),
        "graphs.is_connected.calls": count("graphs.is_connected.calls"),
        # The certificate is the only wrapped call inside k_connected.
        "graphs.flow_scan.self_s": self_s("kernels.k_connected"),
        "study.sample_deployment.s": s("study.sample_deployment"),
        # Sampling minus ring sampling and overlap counting.
        "study.channel_draws.self_s": self_s("study.sample_deployment"),
        "study.evaluate_scenario.s": s("study.evaluate_scenario"),
        "study.evaluate.calls": count("study.evaluate.calls"),
        "study.cells": count("study.cells"),
        "study.deduced_fraction": ratio(cells - cnt.get("study.evaluate.calls", 0.0), cells),
        # evaluate_scenario minus the evaluations it could not deduce.
        "study.deduction.self_s": self_s("study.evaluate_scenario"),
        "study.kconn.prefilter_pass_fraction": ratio(
            cnt.get("kernels.k_connected.calls", 0.0), cnt.get("study.kconn.queries", 0.0)
        ),
        # The work unit minus sampling and evaluation: seeding, assembly.
        "study.unit.self_s": self_s("study.unit"),
        "study.result.merge.s": s("study.result.merge"),
        "study.result.from_dict.s": s("study.result.from_dict"),
        "study.result.to_dict.s": s("study.result.to_dict"),
        "simulation.run_batches.s": s("simulation.run_batches"),
        "simulation.run_batches.units": count("simulation.run_batches.units"),
        "service.cache.lookup.s": s("service.cache.lookup"),
        "service.cache.lookup.calls": count("service.cache.lookup.calls"),
        "service.cache.lookups_per_request": ratio(
            cnt.get("service.cache.lookup.calls", 0.0), requests
        ),
        "service.cache.store.s": s("service.cache.store"),
        "service.cache.store.calls": count("service.cache.store.calls"),
        "service.execute_shard.s": s("service.execute_shard"),
        "service.fold_shard_results.s": s("service.fold_shard_results"),
        "trace.overhead_s": statistics.median(walls)
        - statistics.median(r.wall for r in untraced),
        "trace.top_level_coverage": ratio(spans["top_level"]["s"], sum(walls)),
    }


def end_to_end_metrics(records: Sequence, setup_s: float) -> Dict[str, float]:
    wall = statistics.median(r.wall for r in records)
    return {
        "wall_s": wall,
        "deployments_per_s": statistics.median(r.deployments for r in records) / wall,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def host_stamp() -> Dict[str, object]:
    """A fixed numpy calibration loop plus the versions results depend on."""
    import numpy as np

    from repro.kernels import resolve_backend_name

    rng = np.random.default_rng(0)
    vector = rng.random(1 << 21)
    matrix = rng.random((384, 384))
    times = []
    for _ in range(6):  # the first pass warms caches and is dropped
        start = time.perf_counter()
        np.sort(vector)
        for _ in range(8):
            matrix @ matrix
        times.append(time.perf_counter() - start)
    return {
        "calibration_s": statistics.median(times[1:]),
        "calibration": "sort of 2^21 float64 + 8 matmuls of 384x384, median of 5",
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": resolve_backend_name(),
    }


def load_digests() -> Dict[str, Dict[str, str]]:
    return json.loads(DIGESTS.read_text())


def run_benchmark(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    digests: Dict[str, Dict[str, str]],
    tiny: bool = False,
    scratch_root: Optional[pathlib.Path] = None,
) -> Tuple[Dict[str, object], List[Dict[str, object]]]:
    """One benchmark run: ``(result object, notes printed before it)``."""
    from perfbench.tracing import span_names
    from perfbench.workloads import WORKLOADS

    cls = WORKLOADS[workload_name]
    if scratch_root is None:
        scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(parents=True, exist_ok=True)
    scratch = pathlib.Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=scratch_root))
    try:
        setup_times = []
        for _ in range(SETUPS):
            workload, elapsed = _set_up(cls, seed, tiny, scratch)
            setup_times.append(elapsed)
        setup_s = statistics.median(setup_times)
        notes: List[Dict[str, object]] = []
        if trace:
            untraced = _measure(workload, seconds / 2, scratch)
            traced, spans = _traced(cls, workload, seconds / 2, scratch)
            records = untraced + traced
            metrics = layer_metrics(spans, traced, untraced)
            units = {name: per_layer_unit(name) for name in metrics}
            idle = [n for n in span_names() if not spans["counts"].get(n + ".calls")]
            if idle:
                notes.append({"note": f"{workload_name} never calls, so reports 0 for: "
                              + ", ".join(idle)})
            if cls.workers > 1:
                notes.append({"note": (
                    f"{workload_name}: work units run in {cls.workers} pool workers; "
                    "their spans are summed across workers, so compute layers "
                    "can exceed wall time, and trace.top_level_coverage counts "
                    "parent-side spans only")})
        else:
            records = _measure(workload, seconds, scratch)
            metrics = end_to_end_metrics(records, setup_s)
            units = dict(END_TO_END)

        reference = workload.reference(scratch, records)
        stored = digests.get(workload_name, {}).get(str(seed))
        expected = stored or reference or records[0].digest
        attempted = sum(r.requests for r in records)
        failed = sum(
            r.failed if r.digest == expected else r.requests for r in records
        )
        if reference is not None:  # the one-shot run is checked as one more request
            attempted += 1
            failed += int(reference != expected)
        notes.append({"digest": expected, "stored": stored is not None,
                      "iterations": len(records), "requests": attempted})
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    notes.insert(0, {"host": host_stamp()})
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    return result, notes


def record_digests(count: int) -> Dict[str, Dict[str, str]]:
    """Digests of every workload for seeds ``0..count-1``."""
    from perfbench.workloads import WORKLOADS

    table: Dict[str, Dict[str, str]] = {}
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(parents=True, exist_ok=True)
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="record-", dir=scratch_root))
    try:
        for name, cls in WORKLOADS.items():
            table[name] = {}
            for seed in range(count):
                workload = cls(seed)
                record = workload.iteration(scratch)
                reference = workload.reference(scratch, [record])
                if record.failed or reference not in (None, record.digest):
                    raise SystemExit(f"{name} seed {seed}: outputs failed their checks")
                table[name][str(seed)] = record.digest
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        _stop_pool()
    return table


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", type=int, metavar="N")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro
        from perfbench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if pathlib.Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    if args.record_digests is not None:
        DIGESTS.write_text(json.dumps(record_digests(args.record_digests), indent=1) + "\n")
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    try:
        result, notes = run_benchmark(
            args.workload, args.seed, args.seconds, bool(args.trace),
            digests=load_digests(),
        )
    finally:
        _stop_pool()
    for note in notes:
        print(json.dumps(note))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
