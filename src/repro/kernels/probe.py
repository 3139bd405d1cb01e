"""Micro-probes for kernel backends (the ``repro kernels`` subcommand).

Each probe runs every registered backend over a tiny fixed workload,
checks the results against the reference backend (and against known
closed-form answers where available), and reports micro-timings.  The
point is a fast, dependency-free smoke: "is this backend importable,
correct on the basics, and roughly how fast" — not a benchmark (see
``benchmarks/test_bench_kernels.py`` for those).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from repro.graphs.vertex_connectivity import _closure_scan_edges
from repro.kernels import (
    available_backends,
    get_backend,
)
from repro.kernels.base import verify_backend_contract

__all__ = ["probe_backend", "probe_backends", "render_probes"]

_TIMING_REPS = 5


def _probe_inputs():
    """One deterministic small workload shared by every probe."""
    rng = np.random.default_rng(20170608)
    n = 120
    # A sparse ER-ish edge set with two planted components.
    m = 260
    u = rng.integers(0, n // 2, size=m, dtype=np.int64)
    v = rng.integers(0, n // 2, size=m, dtype=np.int64)
    keep = u != v
    half_edges = np.stack(
        [np.minimum(u[keep], v[keep]), np.maximum(u[keep], v[keep])], axis=1
    )
    other_half = half_edges + n // 2  # mirror component on nodes n/2..n-1
    edges = np.concatenate([half_edges, other_half])
    # A key incidence: 40 nodes, ring size 6, pool 90.  Rings are
    # K-subsets (no key repeats within a node) like real deployments —
    # the overlap_counts contract assumes unique (node, key) rows.
    rings = np.argsort(rng.random((40, 90)), axis=1)[:, :6].astype(np.int64)
    node_ids = np.repeat(np.arange(40, dtype=np.int64), 6)
    key_ids = rings.ravel()
    # A moderately dense graph for the k-connectivity probe.
    gn = 48
    gu, gv = np.triu_indices(gn, k=1)
    dense_keep = rng.random(gu.size) < 0.25
    kedges = np.stack([gu[dense_keep], gv[dense_keep]], axis=1).astype(np.int64)
    return n, edges, node_ids, key_ids, kedges, gn


def _timed(fn) -> float:
    best = float("inf")
    for _ in range(_TIMING_REPS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def probe_backend(name: str) -> Dict[str, object]:
    """Probe one backend; returns an info dict (never raises on failure)."""
    listing = {info["name"]: info for info in available_backends()}
    info: Dict[str, object] = {
        "name": name,
        "available": bool(listing.get(name, {}).get("available", False)),
        "reason": str(listing.get(name, {}).get("reason", "unregistered")),
        "ok": False,
        "checks": {},
        "micro_s": {},
    }
    if not info["available"]:
        return info
    try:
        backend = get_backend(name)
        reference = get_backend("reference")
        n, edges, node_ids, key_ids, kedges, gn = _probe_inputs()
        checks: Dict[str, bool] = {}
        micro: Dict[str, float] = {}

        # Contract conformance first: a backend whose kernel signatures
        # drift from the ABC fails its probe with the mismatch named,
        # instead of failing at a keyword call site mid-sweep.
        contract_problems = verify_backend_contract(backend)
        checks["contract"] = not contract_problems
        if contract_problems:
            info["reason"] = "; ".join(contract_problems)

        labels = backend.min_label_components(n, edges[:, 0], edges[:, 1])
        expected = reference.min_label_components(n, edges[:, 0], edges[:, 1])
        checks["min_label_components"] = bool(np.array_equal(labels, expected))
        micro["min_label_components"] = _timed(
            lambda: backend.min_label_components(n, edges[:, 0], edges[:, 1])
        )

        pk, pc = backend.overlap_counts(node_ids, key_ids, 40)
        rk, rc = reference.overlap_counts(node_ids, key_ids, 40)
        checks["overlap_counts"] = bool(
            np.array_equal(pk, rk) and np.array_equal(pc, rc)
        )
        micro["overlap_counts"] = _timed(
            lambda: backend.overlap_counts(node_ids, key_ids, 40)
        )

        cert = backend.sparse_certificate(gn, kedges, 3)
        checks["certificate_size"] = cert.shape[0] <= 3 * (gn - 1)
        checks["certificate_subset"] = bool(
            np.isin(cert[:, 0] * gn + cert[:, 1], kedges[:, 0] * gn + kedges[:, 1]).all()
        )
        # Backends must select the SAME certificate edges, not merely
        # equally valid ones — the value-identity contract.
        checks["certificate_matches_reference"] = bool(
            np.array_equal(cert, reference.sparse_certificate(gn, kedges, 3))
        )
        # The closure scan run on the uncertified edge array is the
        # reference the certified decision must agree with.
        plain = _closure_scan_edges(gn, kedges, kedges, 3)
        checks["k_connected_certificate_agrees"] = plain == backend.k_connected(
            gn, kedges, 3
        )
        # Known answers: a cycle is 2- but not 3-connected.
        cyc = np.stack(
            [np.arange(8, dtype=np.int64), (np.arange(8, dtype=np.int64) + 1) % 8],
            axis=1,
        )
        cyc = np.stack([cyc.min(axis=1), cyc.max(axis=1)], axis=1)
        checks["k_connected_cycle"] = (
            backend.k_connected(8, cyc, 2) and not backend.k_connected(8, cyc, 3)
        )
        micro["k_connected"] = _timed(lambda: backend.k_connected(gn, kedges, 3))

        info["checks"] = checks
        info["micro_s"] = {key: round(val, 6) for key, val in micro.items()}
        info["ok"] = all(checks.values())
    except Exception as exc:  # pragma: no cover - defensive: report, not crash
        info["reason"] = f"probe raised {type(exc).__name__}: {exc}"
        info["ok"] = False
    return info


def probe_backends(only: Optional[str] = None) -> List[Dict[str, object]]:
    """Probe every registered backend (or just *only*)."""
    names = [info["name"] for info in available_backends()]
    if only is not None:
        names = [name for name in names if name == only]
    return [probe_backend(str(name)) for name in names]


def render_probes(probes: List[Dict[str, object]]) -> str:
    """Human-readable probe report for the CLI."""
    lines = ["kernel backends:"]
    for probe in probes:
        name = probe["name"]
        if not probe["available"]:
            lines.append(f"  {name:12} unavailable  ({probe['reason']})")
            continue
        status = "ok" if probe["ok"] else "FAILED"
        timings = ", ".join(
            f"{key}={val * 1e3:.2f}ms" for key, val in probe["micro_s"].items()
        )
        lines.append(f"  {name:12} {status:11} {timings}")
        if not probe["ok"]:
            failed = [key for key, good in probe["checks"].items() if not good]
            detail = ", ".join(failed) if failed else probe["reason"]
            lines.append(f"  {'':12} failed checks: {detail}")
    return "\n".join(lines)
