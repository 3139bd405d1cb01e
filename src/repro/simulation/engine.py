"""Monte Carlo execution engine.

One discipline everywhere: a trial is a picklable callable
``trial(rng) -> outcome`` and trial *i* of a run rooted at seed ``s``
always receives the generator derived from
``SeedSequence(s, spawn_key=(i,))`` — regardless of worker count or
scheduling.  Serial and process-parallel execution therefore produce
bit-identical outcome sequences, which the test suite asserts.

Trials run as interleaved index chunks under the per-unit supervisor
(:func:`repro.simulation.scheduler.run_units`) with its default
fail-fast policy: one retry per chunk, then
:class:`~repro.exceptions.DeadUnitError` chained to the chunk's last
exception.
"""

from __future__ import annotations

import functools
import os
from typing import Callable, List, Optional, Sequence, TypeVar

import numpy as np

from repro.exceptions import SimulationError
from repro.simulation.pool import default_workers
from repro.simulation.scheduler import run_units
from repro.utils.rng import trial_seed_sequence

__all__ = ["run_trials", "default_workers", "trials_from_env"]

T = TypeVar("T")
TrialFn = Callable[[np.random.Generator], T]


def trials_from_env(default: int, *, full: Optional[int] = None) -> int:
    """Trial count for benchmarks: env-overridable quick defaults.

    ``REPRO_TRIALS`` overrides everything; ``REPRO_FULL=1`` selects the
    paper-fidelity count *full* (e.g. 500 for Figure 1) when provided.
    """
    env = os.environ.get("REPRO_TRIALS")
    if env:
        try:
            value = int(env)
        except ValueError:
            raise SimulationError(
                f"REPRO_TRIALS must be an integer, got {env!r}"
            ) from None
        if value < 1:
            raise SimulationError(f"REPRO_TRIALS must be >= 1, got {value}")
        return value
    if full is not None and os.environ.get("REPRO_FULL") == "1":
        return full
    return default


def _run_indices(trial: TrialFn, root: Optional[int], indices: Sequence[int]) -> List:
    out = []
    for index in indices:
        rng = np.random.default_rng(trial_seed_sequence(root, index))
        out.append(trial(rng))
    return out


def run_trials(
    trial: TrialFn,
    num_trials: int,
    seed: Optional[int] = None,
    workers: Optional[int] = None,
) -> List[T]:
    """Run *num_trials* independent trials; return outcomes in trial order.

    Parameters
    ----------
    trial:
        Picklable callable receiving a dedicated ``numpy`` generator.
        (Module-level functions and ``functools.partial`` over picklable
        arguments qualify; lambdas only work with ``workers=1``.)
    num_trials:
        Number of independent repetitions.
    seed:
        Root seed; ``None`` fixes the root entropy to 0 so that runs
        remain reproducible by default (pass a varying seed explicitly
        for independent replications).
    workers:
        Process count; ``1`` runs inline (no pool), ``None`` uses
        :func:`default_workers`; one chunk per worker.
    """
    if num_trials < 1:
        raise SimulationError(f"num_trials must be >= 1, got {num_trials}")
    workers = default_workers() if workers is None else int(workers)
    if workers < 1:
        raise SimulationError(f"workers must be >= 1, got {workers}")
    workers = min(workers, num_trials)

    # Interleaved index blocks keep chunk runtimes balanced even when
    # difficulty drifts with the trial index; one worker gets one chunk.
    chunks = [list(range(w, num_trials, workers)) for w in range(workers)]
    results: List = [None] * num_trials
    outcomes, _ = run_units(
        functools.partial(_run_indices, trial, seed), chunks, workers
    )
    for chunk, chunk_outcomes in zip(chunks, outcomes):
        for index, outcome in zip(chunk, chunk_outcomes):
            results[index] = outcome
    return results
