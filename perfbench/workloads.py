"""The benchmark workloads and their output checks.

Each workload is built from the benchmark seed alone (scenario seeds are
derived from it), serves closed-loop requests from one client, and returns
one :class:`Record` per iteration.  ``tiny=True`` shrinks every size for the
self-tests and for the warm-up call made during set-up.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pathlib
import shutil
import time
import zlib
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.figure1 import build_figure1_study
from repro.experiments.mindegree_equiv import build_mindegree_study
from repro.experiments.zero_one import build_zero_one_study
from repro.service.cache import ResultCache, run_cached
from repro.service.shards import InProcessTransport
from repro.study import Study, StudyResult
from repro.study.result import ScenarioResult


@dataclasses.dataclass
class Record:
    """One closed-loop iteration."""

    wall: float  # seconds spent inside the program's calls
    requests: int
    deployments: int  # deployments sampled by the iteration
    digest: str  # sha256 over the iteration's value tensors
    failed: int  # requests that failed a check made on the spot


def scenario_seed(seed: int, workload: str) -> int:
    """The scenario seed a workload derives from the benchmark seed."""
    entropy = [seed, zlib.crc32(workload.encode())]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def digest(results: Sequence[ScenarioResult]) -> str:
    """sha256 over the shapes and float64 bytes of the value tensors."""
    h = hashlib.sha256()
    for result in results:
        values = np.ascontiguousarray(result.values, dtype=np.float64)
        h.update(repr(values.shape).encode())
        h.update(values.tobytes())
    return h.hexdigest()


def _indicators(values: np.ndarray) -> bool:
    """Every cell is 0 or 1 (a NaN cell fails)."""
    return bool(np.isin(values, (0.0, 1.0)).all())


class _StudyWorkload:
    """One request = one ``Study.run`` of the whole grid, inline."""

    name = ""
    workers = 1

    def __init__(self, study: Study) -> None:
        self.study = study

    def check(self, result: StudyResult) -> bool:
        raise NotImplementedError

    def iteration(self, scratch: pathlib.Path) -> Record:
        start = time.perf_counter()
        result = self.study.run(workers=self.workers)
        elapsed = time.perf_counter() - start
        return Record(
            wall=elapsed,
            requests=1,
            deployments=int(result.provenance["deployments"]),
            digest=digest(result.results),
            failed=int(not self.check(result)),
        )

    def reference(self, scratch: pathlib.Path, records: Sequence[Record]) -> Optional[str]:
        """No second path computes this grid; iterations must agree."""
        return None


class Figure1Quick(_StudyWorkload):
    """Figure 1: n = 1000, P = 10^4, K = 28..88 step 4, six (q, p) curves."""

    name = "figure1_quick"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        size = (
            dict(trials=1, ring_sizes=(10, 14), num_nodes=60, pool_size=600)
            if tiny
            else dict(trials=4)
        )
        super().__init__(build_figure1_study(seed=scenario_seed(seed, self.name), **size))

    def check(self, result: StudyResult) -> bool:
        res = result["figure1"]
        if not _indicators(res.values):
            return False
        # Curves are nested per deployment: a curve with q' <= q and
        # p' >= p keeps a superset of the edges, so it is connected
        # whenever the sparser curve is.
        curves = res.scenario.curves
        for i, (q, p) in enumerate(curves):
            for j, (q2, p2) in enumerate(curves):
                if q2 <= q and p2 >= p and (res.values[..., j, :] < res.values[..., i, :]).any():
                    return False
        return True


class MindegreeFull(_StudyWorkload):
    """Lemma 8 grid: ks = 1, 2, 3 x three alphas, n = 300, K = 80."""

    name = "mindegree_full"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        size = (
            dict(trials=2, num_nodes=40, key_ring_size=30, pool_size=500)
            if tiny
            else dict(trials=300)
        )
        super().__init__(build_mindegree_study(seed=scenario_seed(seed, self.name), **size))

    def check(self, result: StudyResult) -> bool:
        for res in result.results:
            min_degree, k_connected = res.values[..., 0], res.values[..., 1]
            # k-connected implies minimum degree >= k on every deployment.
            if not _indicators(res.values) or (k_connected > min_degree).any():
                return False
        return True


class GrowthService:
    """Zero-one growth sweep through the result cache and the warm pool.

    Each iteration, against a fresh cache: a miss at T trials, an
    extension to 2T, then hits alternating the 2T and T windows.  Trial
    shards run over the in-process transport with two pool workers.
    """

    name = "growth_service"
    workers = 2

    def __init__(self, seed: int, tiny: bool = False) -> None:
        if tiny:
            grid, pool, self.trials, self.hits = (40, 60), 1000, 2, 4
        else:
            grid, pool, self.trials, self.hits = (200, 500, 1000), 10000, 48, 100
        sized = dict(num_nodes_grid=grid, pool_size=pool, seed=scenario_seed(seed, self.name))
        self.short = build_zero_one_study(trials=self.trials, **sized)
        self.full = build_zero_one_study(trials=2 * self.trials, **sized)
        self.transport = InProcessTransport(workers=self.workers)
        self._iterations = 0

    def iteration(self, scratch: pathlib.Path) -> Record:
        cache_dir = scratch / f"cache-{self._iterations}"
        self._iterations += 1
        cache = ResultCache(cache_dir)
        requests: List[Tuple[Study, str]] = [(self.short, "miss"), (self.full, "extension")]
        requests += [((self.full, self.short)[i % 2], "hit") for i in range(self.hits)]
        wall = 0.0
        written = {}  # trials -> (results, digest) of the write path
        deployments = failed = 0
        for study, expected in requests:
            start = time.perf_counter()
            result = run_cached(
                study, cache, workers=self.workers, transport=self.transport, shards=2
            )
            wall += time.perf_counter() - start
            info = result.provenance["cache"]
            trials = study.scenarios[0].trials
            ok = info["disposition"] == expected and _indicators(result["zero_one"].values)
            if expected == "hit":
                ok = ok and info["executed_units"] == 0
                ok = ok and digest(result.results) == written[trials][1]
            else:
                written[trials] = (result.results, digest(result.results))
                deployments += int(result.provenance["deployments"])
            failed += int(not ok)
        shutil.rmtree(cache_dir)
        return Record(
            wall=wall,
            requests=len(requests),
            deployments=deployments,
            digest=digest(written[self.trials][0] + written[2 * self.trials][0]),
            failed=failed,
        )

    def reference(self, scratch: pathlib.Path, records: Sequence[Record]) -> str:
        """Digest of a one-shot ``Study.run`` at 2T and its T-trial prefix."""
        full = self.full.run(workers=self.workers)["zero_one"]
        return digest((full.truncated(self.trials), full))


WORKLOADS = {cls.name: cls for cls in (Figure1Quick, MindegreeFull, GrowthService)}
