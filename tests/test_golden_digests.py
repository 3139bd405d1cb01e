"""Golden digests: the sampled random stream itself, pinned.

Every other bit-identity test compares two execution paths of the same
code (one-shot vs adaptive vs sharded vs cached, serial vs pooled),
so a change to draw order or to a sampler that moves every path
together passes them unnoticed.  This suite compares against committed
numbers instead: a sha256 over the shape and float64 bytes of each
value tensor of a small fixed-seed corpus, stored in
``tests/golden_digests.json``.

The corpus spans every stream layout the engine has — a Figure 1
slice, a sized growth grid, a class mix, the disk channel, capture
metrics, an exact k = 3 decision, degree counts, giant fractions and
the Lemma 5 coupling trials.  An intentional stream change bumps
``repro.study.scenario.STREAM_VERSION`` and regenerates both digest
files (this one and ``perfbench/digests.json``) in the same change::

    PYTHONPATH=src python tests/test_golden_digests.py --regenerate
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
import sys
from typing import Callable, Dict

import numpy as np
import pytest

from repro.experiments.coupling_check import coupling_outcomes
from repro.experiments.degree_poisson import build_degree_poisson_study
from repro.experiments.disk_comparison import build_disk_study
from repro.experiments.figure1 import build_figure1_study
from repro.experiments.giant_component import build_giant_study
from repro.experiments.het_mindegree import build_het_mindegree_study
from repro.experiments.mindegree_equiv import build_mindegree_study
from repro.experiments.resilience import build_resilience_study
from repro.experiments.zero_one import build_zero_one_study
from repro.study import Study

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_digests.json")

# =========================== corpus ==========================================

Tensors = Dict[str, np.ndarray]

#: Study entries: name -> study builder.
STUDIES: Dict[str, Callable[[], Study]] = {
    "figure1_slice": lambda: build_figure1_study(
        trials=3, ring_sizes=(22, 30), num_nodes=60, pool_size=600, seed=11
    ),
    "growth_grid": lambda: build_zero_one_study(
        trials=3, num_nodes_grid=(40, 60), pool_size=1000, seed=12
    ),
    "class_mix": lambda: build_het_mindegree_study(
        trials=3, ks=(1, 2), num_nodes=50, pool_size=2000, seed=13
    ),
    "disk_channel": lambda: build_disk_study(
        trials=3, ring_sizes=(24, 32), num_nodes=50, pool_size=600, seed=14
    ),
    "capture_metrics": lambda: build_resilience_study(
        trials=3,
        qs=(1, 2),
        captured_grid=(0, 5, 15),
        num_nodes=40,
        design_nodes=40,
        pool_size=1000,
        seed=15,
    ),
    "k3_decision": lambda: build_mindegree_study(
        trials=3, ks=(3,), num_nodes=40, key_ring_size=30, pool_size=500, seed=16
    ),
    "degree_counts": lambda: build_degree_poisson_study(
        trials=3, num_nodes=60, key_ring_size=30, pool_size=1000, seed=17
    ),
    "giant_fraction": lambda: build_giant_study(
        trials=3,
        mean_degrees=(0.8, 2.0),
        num_nodes=60,
        key_ring_size=20,
        pool_size=1000,
        seed=18,
    ),
}


def _study_tensors(build: Callable[[], Study]) -> Tensors:
    result = build().run(workers=1)
    return {res.scenario.name: res.values for res in result.results}


def _coupling_tensors() -> Tensors:
    # The coupling check runs on the trial engine, not the study
    # compiler.  Its tensor keeps the (ring, trial, curve, value) layout
    # (1, trials, 1, 2) and the scenario key it had when it ran as a
    # study scenario, so the digest pinned then still checks the same
    # stream (per-size root seed 19 + n).
    outcomes = coupling_outcomes(30, 20, 1000, 2, trials=3, seed=19 + 30, workers=1)
    return {"coupling_n30": outcomes.reshape(1, 3, 1, 2)}


#: Entry name -> value tensors by scenario name, run inline.  Order is
#: the reporting order.
CORPUS: Dict[str, Callable[[], Tensors]] = {
    **{name: functools.partial(_study_tensors, build) for name, build in STUDIES.items()},
    "coupling_protocol": _coupling_tensors,
}


def tensor_digest(values: np.ndarray) -> str:
    """sha256 over the shape and float64 bytes of one value tensor."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    h = hashlib.sha256()
    h.update(repr(values.shape).encode())
    h.update(values.tobytes())
    return h.hexdigest()


def entry_digests(entry: str) -> Dict[str, str]:
    """``{scenario name: digest}`` for one corpus entry, run inline."""
    return {name: tensor_digest(values) for name, values in CORPUS[entry]().items()}


def compute_all() -> Dict[str, Dict[str, str]]:
    return {entry: entry_digests(entry) for entry in CORPUS}


# =========================== fixtures ========================================


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, str]]:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(params=list(CORPUS))
def corpus_entry(request) -> str:
    return request.param


# =========================== tests ===========================================


def test_golden_file_covers_corpus(golden):
    assert list(golden) == list(CORPUS), (
        "golden_digests.json entries differ from the corpus; regenerate with "
        "`python tests/test_golden_digests.py --regenerate`"
    )


def test_digest_matches_golden(golden, corpus_entry):
    got = entry_digests(corpus_entry)
    want = golden[corpus_entry]
    assert list(got) == list(want), (
        f"corpus entry {corpus_entry!r}: scenarios {list(got)} != golden {list(want)}"
    )
    for name, digest in got.items():
        assert digest == want[name], (
            f"first differing golden digest: entry {corpus_entry!r}, "
            f"scenario {name!r} (got {digest[:12]}, golden {want[name][:12]})"
        )


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_golden_digests.py --regenerate")
    GOLDEN_PATH.write_text(json.dumps(compute_all(), indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}")
