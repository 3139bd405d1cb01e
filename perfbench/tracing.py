"""Layer spans recorded from outside the program.

The benchmark never edits ``src/``.  :func:`installed` replaces the public
function each layer exposes with a timing wrapper, at the attribute its
caller looks it up through (``repro.study.compiler`` imports
``sample_deployment``, ``evaluate_scenario`` and ``run_batches`` by name,
so they are wrapped there), and restores the originals on exit.

A span's *self* time is its duration minus the time its child spans took.
Work units that run in forked pool workers inherit the wrappers; each
worker writes its running totals to ``worker_dir`` after every unit, and
:func:`worker_totals` sums those files in the parent.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import pathlib
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

class Tracer:
    """In-memory span totals: inclusive seconds, self seconds and counters."""

    def __init__(self, worker_dir: pathlib.Path) -> None:
        self.parent_pid = os.getpid()
        self.pid = self.parent_pid
        self.worker_dir = worker_dir
        self.reset()

    def reset(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.top_level = 0.0  # seconds covered by outermost spans
        self._stack: List[float] = []  # child seconds of each open span

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {
            "seconds": dict(self.seconds),
            "self_seconds": dict(self.self_seconds),
            "counts": dict(self.counts),
            "top_level": {"s": self.top_level},
        }

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Optional[Callable[[Dict[str, float], tuple, object], None]] = None,
    ) -> Callable:
        """*fn* wrapped in a span; *count* adds counters from args and result."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:  # first span in a forked worker
                tracer.pid = os.getpid()
                tracer.reset()
            tracer._stack.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(name, time.perf_counter() - start)
            tracer.counts[name + ".calls"] += 1
            if count is not None:
                count(tracer.counts, args, out)
            if not tracer._stack and tracer.pid != tracer.parent_pid:
                tracer._flush()
            return out

        return wrapper

    def _close(self, name: str, elapsed: float) -> None:
        children = self._stack.pop()
        self.seconds[name] += elapsed
        self.self_seconds[name] += elapsed - children
        if self._stack:
            self._stack[-1] += elapsed
        else:
            self.top_level += elapsed

    def _flush(self) -> None:
        path = self.worker_dir / f"{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()))
        tmp.replace(path)


def worker_totals(worker_dir: pathlib.Path) -> Dict[str, Dict[str, float]]:
    """Sum of every pool worker's latest snapshot (top-level time excluded)."""
    total: Dict[str, Dict[str, float]] = {
        "seconds": defaultdict(float),
        "self_seconds": defaultdict(float),
        "counts": defaultdict(float),
    }
    for path in sorted(worker_dir.glob("*.json")):
        snap = json.loads(path.read_text())
        for field, acc in total.items():
            for key, value in snap[field].items():
                acc[key] += value
    return {field: dict(acc) for field, acc in total.items()}


def subtract(
    after: Dict[str, Dict[str, float]], before: Dict[str, Dict[str, float]]
) -> Dict[str, Dict[str, float]]:
    return {
        field: {
            key: value - before.get(field, {}).get(key, 0.0)
            for key, value in values.items()
        }
        for field, values in after.items()
    }


def add(*snaps: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for snap in snaps:
        for field, values in snap.items():
            for key, value in values.items():
                out[field][key] += value
    return {field: dict(values) for field, values in out.items()}


def _count_pairs(counts, args, out) -> None:
    counts["kernels.overlap_counts.pairs"] += len(out[0])


def _count_certificate(counts, args, out) -> None:
    # KernelBackend.sparse_certificate(self, num_nodes, edges, k)
    counts["kernels.sparse_certificate.edges_in"] += len(args[2])
    counts["kernels.sparse_certificate.edges_out"] += len(out)


def _count_cells(counts, args, out) -> None:
    counts["study.cells"] += out.size


def _count_kconn_query(counts, args, out) -> None:
    # DeploymentEvaluator.evaluate(self, channel, q, p, metric)
    metric = args[4]
    if metric.kind == "k_connectivity" and metric.k >= 2:
        counts["study.kconn.queries"] += 1


def _count_units(counts, args, out) -> None:
    counts["simulation.run_batches.units"] += len(args[1])


def _targets() -> List[Tuple[object, str, str, Optional[Callable]]]:
    """``(owner, attribute, span name, counter)`` of every wrapped function."""
    import repro.service.shards as shards
    import repro.study.compiler as compiler
    import repro.study.metrics as metrics
    from repro.kernels import get_backend
    from repro.service.cache import ResultCache
    from repro.study.result import ScenarioResult

    backend = type(get_backend())
    return [
        (metrics, "sample_uniform_rings", "keygraphs.sample_rings", None),
        (backend, "overlap_counts", "kernels.overlap_counts", _count_pairs),
        (backend, "sparse_certificate", "kernels.sparse_certificate", _count_certificate),
        (backend, "k_connected", "kernels.k_connected", None),
        (metrics, "is_connected_pair_keys", "graphs.is_connected", None),
        (compiler, "sample_deployment", "study.sample_deployment", None),
        (compiler, "evaluate_scenario", "study.evaluate_scenario", _count_cells),
        (metrics.DeploymentEvaluator, "evaluate", "study.evaluate", _count_kconn_query),
        # The work-unit body; the pool pickles it by name, so forked
        # workers resolve the wrapper too.
        (compiler, "_group_block", "study.unit", None),
        (ScenarioResult, "merge", "study.result.merge", None),
        (ScenarioResult, "from_dict", "study.result.from_dict", None),
        (ScenarioResult, "to_dict", "study.result.to_dict", None),
        (compiler, "run_batches", "simulation.run_batches", _count_units),
        (ResultCache, "lookup", "service.cache.lookup", None),
        (ResultCache, "store", "service.cache.store", None),
        (shards, "execute_shard", "service.execute_shard", None),
        (shards, "fold_shard_results", "service.fold_shard_results", None),
    ]


def span_names() -> List[str]:
    """Every span the benchmark records, in layer order."""
    return [name for _, _, name, _ in _targets()]


_MISSING = object()


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every layer function in a span for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, count in _targets():
            own = vars(owner).get(attr, _MISSING)
            saved.append((owner, attr, own))
            if isinstance(own, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(name, own.__func__, count)))
            else:
                setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))
        yield tracer
    finally:
        for owner, attr, own in reversed(saved):
            if own is _MISSING:
                delattr(owner, attr)  # was inherited from a base class
            else:
                setattr(owner, attr, own)
