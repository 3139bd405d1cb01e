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

* :func:`run_units` — the one dispatcher: every study work unit and
  every per-trial engine chunk runs under this per-unit supervisor,
  inline for one worker and on the warm worker pool otherwise
  (:mod:`repro.simulation.pool`), bit-identical for any worker count.
  Without a policy it retries a failed unit once and then fails fast
  (:data:`DEFAULT_POLICY`); a :class:`SchedulerPolicy` sets the retry
  budget, allows partial results and adds the seeded chaos harness
  (:mod:`repro.simulation.faults`);
* :func:`run_trials` — per-trial sampling (the Lemma 5 coupling
  check) as interleaved chunks of :func:`run_units`;
* :class:`BernoulliEstimate` and the :class:`ExperimentResult`
  containers the experiments return.
"""

from repro.simulation.engine import (
    default_workers,
    run_trials,
    trials_from_env,
)
from repro.simulation.pool import (
    discard_executor,
    executor_lease,
    get_executor,
    shutdown_pools,
)
from repro.simulation.faults import (
    ChaosSpec,
    FailureInjector,
    FaultStrategy,
    chaos_from_env,
    load_chaos,
)
from repro.simulation.scheduler import (
    DEFAULT_POLICY,
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
    "trials_from_env",
    "get_executor",
    "discard_executor",
    "executor_lease",
    "shutdown_pools",
    "ChaosSpec",
    "FaultStrategy",
    "FailureInjector",
    "chaos_from_env",
    "load_chaos",
    "DEFAULT_POLICY",
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
