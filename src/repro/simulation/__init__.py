"""Monte Carlo execution substrate: engine, pools, scheduler, results.

This package runs work; it does not sample the model.  The one sampler
of Section II's model is the study compiler (:mod:`repro.study`): one
deployment per ``(size, K, trial)`` serves every ``(q, p)`` curve and
every metric of the scenarios sharing it.  Rings are sampled once,
key-overlap counts are computed once, and all channel probabilities
are realized from a single uniform draw per candidate edge by nested
thinning (``U < p``).  Marginally each curve sees exactly the model;
jointly the curves are coupled monotonically, so estimates at the same
``(K, trial)`` are positively correlated across curves and must not be
treated as independent when aggregated over curves.  Across trials
and ring sizes everything stays independent.

What lives here:

* :func:`run_batches` / :func:`run_trials` — deterministic fan-out of
  work units and per-trial protocols over the warm worker pool
  (:mod:`repro.simulation.pool`; ``REPRO_PERSISTENT_POOL=0`` disables
  reuse), bit-identical for any worker count;
* :func:`run_units` — the fault-tolerant per-unit supervisor with its
  seeded chaos harness (:mod:`repro.simulation.faults`);
* :class:`BernoulliEstimate` and the :class:`ExperimentResult`
  containers the experiments return.
"""

from repro.simulation.engine import (
    default_workers,
    run_batches,
    run_trials,
    trials_from_env,
)
from repro.simulation.pool import (
    discard_executor,
    executor_lease,
    get_executor,
    persistent_pools_enabled,
    shutdown_pools,
    submit_batches,
)
from repro.simulation.faults import (
    ChaosSpec,
    FailureInjector,
    FaultStrategy,
    chaos_from_env,
    load_chaos,
)
from repro.simulation.scheduler import (
    FaultReport,
    SchedulerPolicy,
    combine_fault_reports,
    resolve_scheduler_policy,
    run_units,
)
from repro.simulation.estimators import BernoulliEstimate, wilson_interval
from repro.simulation.results import (
    CurvePoint,
    ExperimentResult,
    load_result,
    save_result,
)

__all__ = [
    "default_workers",
    "run_trials",
    "run_batches",
    "trials_from_env",
    "get_executor",
    "discard_executor",
    "executor_lease",
    "persistent_pools_enabled",
    "shutdown_pools",
    "submit_batches",
    "ChaosSpec",
    "FaultStrategy",
    "FailureInjector",
    "chaos_from_env",
    "load_chaos",
    "FaultReport",
    "SchedulerPolicy",
    "combine_fault_reports",
    "resolve_scheduler_policy",
    "run_units",
    "BernoulliEstimate",
    "wilson_interval",
    "CurvePoint",
    "ExperimentResult",
    "load_result",
    "save_result",
]
