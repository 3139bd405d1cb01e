"""Command-line interface: ``repro`` / ``python -m repro``.

Every registered experiment is a Scenario/Study declaration over the
shared-deployment sweep compiler (see :mod:`repro.study`), so the CLI
is thin: it looks declarations up, applies overrides, runs, renders.

Subcommands
-----------
``repro list``
    Show every registered experiment with its paper anchor.
``repro run NAME [--trials N] [--workers N] [--seed N] [--set k=v ...] [--save PATH]``
    Run one experiment and print its rendered table(s).  ``--set``
    overrides any keyword of the experiment's run function, with JSON
    values: ``repro run theorem1 --set trials=200 --set "ks=[1,2]"``.
    A leading ``grid.`` namespace is accepted and stripped, so
    ``--set grid.trials=200`` is equivalent.
``repro all [--trials N] [--set k=v ...] ...``
    Run the full suite in registry order (quick trial counts unless
    overridden), printing each block — the "regenerate the evaluation
    section" button.  ``--set`` overrides are applied per experiment:
    keys an experiment's run function does not accept are skipped with
    a warning on stderr, so ``repro all --set trials=200`` tunes every
    Monte Carlo experiment while the numeric ``kstar`` table just notes
    the skip.
``repro study FILE.json [--workers N] [--set k=v ...] [--save PATH]``
    Run scenarios straight from JSON — one scenario object, a list, or
    ``{"scenarios": [...]}`` — with no accompanying Python.  With
    ``--target-ci HW`` the study runs *adaptively*: the declared
    ``trials`` is the first round, and ``(size, K, curve)`` cells keep
    extending in blocks (``--block-trials``, capped per cell at
    ``--max-trials``) until their Wilson half-width
    (indicator metrics) or standard error (value metrics) reaches the
    target — e.g. ``repro study FILE.json --target-ci 0.01
    --max-trials 4000``.  ``--set``
    overrides a field on *every* scenario in the file (e.g. ``--set
    trials=50``, or ``--set "num_nodes_grid=[200,500,1000]"`` for a
    growth sweep; setting ``num_nodes_grid`` drops a conflicting
    ``num_nodes``, while ``--set num_nodes`` on a size-grid file also
    requires replacing any per-size ring_sizes/curves/pool_size
    lists).  There is no separate ``--seed``
    flag here: the seed is a scenario field, so ``--set seed=7`` is the
    study-file spelling of ``repro run NAME --seed 7``.  Results render
    as generic per-metric tables; ``--save`` writes the full per-trial
    value tensors as JSON.

    Fault tolerance: ``--max-retries N`` runs work units under the
    per-unit supervisor (:mod:`repro.simulation.scheduler`) — bounded
    retries with jittered backoff and graceful degradation to a partial
    (NaN-bearing) result with a fault report in provenance.  ``--chaos
    FILE_OR_SPEC`` (or the ``REPRO_CHAOS`` env var) additionally
    injects deterministically seeded failures — crash, drop, partial
    result, broken pool — around every unit, for testing that the
    supervised run still converges to the fault-free answer.
"""

from __future__ import annotations

import argparse
import inspect
import json
import pathlib
import sys
from typing import Dict, List, Optional

from repro.exceptions import ExperimentError, ParameterError
from repro.experiments.registry import get_experiment, list_experiments
from repro.simulation.results import save_result
from repro.study.adaptive import ADAPTIVE_OPTIONS, AdaptivePolicy, policy_from_options

__all__ = ["main", "build_parser", "parse_overrides"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction harness for 'Secure connectivity of WSNs under "
            "key predistribution with on/off channels' (ICDCS 2017)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    for cmd in ("run", "all"):
        p = sub.add_parser(
            cmd,
            help="run one experiment" if cmd == "run" else "run every experiment",
        )
        if cmd == "run":
            p.add_argument("name", help="experiment name (see `repro list`)")
            p.add_argument("--save", help="write the result JSON to this path")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help=(
                "override any run() keyword (JSON value), repeatable"
                if cmd == "run"
                else "override run() keywords per experiment (JSON value), "
                "repeatable; keys an experiment does not accept are "
                "skipped with a warning"
            ),
        )
        p.add_argument("--trials", type=int, default=None, help="Monte Carlo trials")
        p.add_argument("--workers", type=int, default=None, help="process count")
        p.add_argument("--seed", type=int, default=None, help="root seed override")

    p = sub.add_parser(
        "lint",
        help="run the determinism & contract linter (repro.analysis)",
    )
    p.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    p.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    p.add_argument(
        "--ignore",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    p.add_argument(
        "--format",
        default="text",
        choices=("text", "json"),
        help="report format (json is the CI gate's input)",
    )
    p.add_argument(
        "--list-rules",
        action="store_true",
        help="list the rules and exit",
    )
    p.add_argument(
        "--verbose",
        action="store_true",
        help="also show suppressed findings (text format)",
    )

    p = sub.add_parser("study", help="run scenarios from a JSON file")
    p.add_argument("file", help="path to a scenario/study JSON file")
    p.add_argument("--workers", type=int, default=None, help="process count")
    p.add_argument("--save", help="write the StudyResult JSON to this path")
    p.add_argument(
        "--target-ci",
        type=float,
        default=None,
        metavar="HW",
        help=(
            "run adaptively: extend trials in blocks until every (size, K, "
            "curve) cell's Wilson half-width (indicators) or standard error "
            "(means) is at or below this target"
        ),
    )
    p.add_argument(
        "--max-trials",
        type=int,
        default=None,
        metavar="N",
        help=(
            "per-cell trial cap for --target-ci runs "
            f"(default {AdaptivePolicy.max_trials})"
        ),
    )
    p.add_argument(
        "--block-trials",
        type=int,
        default=None,
        metavar="N",
        help=(
            "trials added per adaptive round (default: the scenario's "
            "declared trials, which is also the first round)"
        ),
    )
    p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help=(
            "override a scenario field on every scenario (JSON value), "
            "repeatable; covers seeds too (--set seed=7 — the study "
            "subcommand has no separate --seed flag) and size grids "
            '(--set "num_nodes_grid=[200,500]" replaces num_nodes)'
        ),
    )
    p.add_argument(
        "--chaos",
        default=None,
        metavar="FILE_OR_SPEC",
        help=(
            "inject deterministic faults around every work unit: a "
            "ChaosSpec JSON file path or an inline JSON object (also "
            "honored from the REPRO_CHAOS environment variable); implies "
            "the fault-tolerant scheduler"
        ),
    )
    p.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "fault-tolerant scheduler: failed-attempt budget per work "
            "unit beyond its first try (default 3); passing it (or "
            "--chaos) enables partial results for units that exhaust it"
        ),
    )
    p.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help=(
            "content-addressed result cache directory: a repeated study is "
            "a cache hit, an overlapping one (same scenarios, more trials) "
            "runs only the missing trial window"
        ),
    )
    p = sub.add_parser(
        "serve", help="run the long-running study service on a spool directory"
    )
    p.add_argument(
        "--spool",
        required=True,
        metavar="DIR",
        help="spool directory (jobs/, status/, events/, results/ live here)",
    )
    p.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="answer repeated/overlapping jobs from this result cache",
    )
    p.add_argument("--workers", type=int, default=None, help="process count per job")
    p.add_argument(
        "--max-concurrent",
        type=int,
        default=2,
        metavar="N",
        help="jobs executing at once, sharing the warm pool (default 2)",
    )
    p.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        metavar="N",
        help="stop after N jobs (bounded servers for CI/tests)",
    )
    p.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop after this long with no pending or running jobs",
    )

    p = sub.add_parser("submit", help="submit a study JSON to a running service")
    p.add_argument("file", help="path to a scenario/study JSON file")
    p.add_argument("--spool", required=True, metavar="DIR", help="service spool directory")
    p.add_argument(
        "--target-ci",
        type=float,
        default=None,
        metavar="HW",
        help="run the job adaptively to this CI target (see `repro study`)",
    )
    p.add_argument(
        "--max-trials", type=int, default=None, metavar="N",
        help="per-cell trial cap for --target-ci jobs",
    )
    p.add_argument(
        "--block-trials", type=int, default=None, metavar="N",
        help="trials per adaptive round for --target-ci jobs",
    )
    p.add_argument(
        "--wait",
        action="store_true",
        help="tail the job's progress events and exit with its outcome",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="--wait gives up after this long (default 600)",
    )

    p = sub.add_parser("status", help="show service job status and events")
    p.add_argument("job", nargs="?", default=None, help="job id (default: list all)")
    p.add_argument("--spool", required=True, metavar="DIR", help="service spool directory")
    p.add_argument(
        "--events",
        type=int,
        default=10,
        metavar="N",
        help="show the last N progress events of the job (default 10)",
    )
    return parser


def parse_overrides(pairs: List[str]) -> Dict[str, object]:
    """Parse ``--set key=value`` pairs; values are JSON, else strings.

    A leading ``grid.`` namespace is stripped (``grid.trials`` →
    ``trials``), matching the scenario-file vocabulary.
    """
    out: Dict[str, object] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ExperimentError(
                f"--set expects KEY=VALUE, got {pair!r}"
            )
        if key.startswith("grid."):
            key = key[len("grid."):]
        try:
            value: object = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        out[key] = value
    return out


def _run_signature(run_fn):
    """(parameters, accepts **kwargs) of an experiment's run function."""
    params = inspect.signature(run_fn).parameters
    accepts_var_kw = any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    )
    return params, accepts_var_kw


def _run_kwargs(args: argparse.Namespace, run_fn=None) -> dict:
    kwargs: dict = {}
    if args.trials is not None:
        kwargs["trials"] = args.trials
    if args.workers is not None:
        kwargs["workers"] = args.workers
    if getattr(args, "seed", None) is not None:
        kwargs["seed"] = args.seed
    overrides = parse_overrides(getattr(args, "overrides", []) or [])
    if overrides and run_fn is not None:
        params, accepts_var_kw = _run_signature(run_fn)
        unknown = set(overrides) - set(params)
        if unknown and not accepts_var_kw:
            raise ExperimentError(
                f"unknown --set keys {sorted(unknown)}; "
                f"valid parameters: {sorted(params)}"
            )
    kwargs.update(overrides)
    return kwargs


def _strip_unsupported(spec, kwargs: dict) -> dict:
    """Drop engine knobs an experiment does not accept (e.g. numeric kstar)."""
    params, accepts_var_kw = _run_signature(spec.run)
    if accepts_var_kw:
        return kwargs
    return {k: v for k, v in kwargs.items() if k in params}


def _is_per_size_rings(scenario: dict) -> bool:
    rings = scenario.get("ring_sizes")
    if not (bool(rings) and isinstance(rings, list) and isinstance(rings[0], list)):
        return False
    if "classes" in scenario:
        # Class-mix entries are per-class [K_1, ..., K_C] vectors, so
        # the per-size form carries one more nesting level.
        return bool(rings[0]) and isinstance(rings[0][0], list)
    return True


def _is_per_size_curves(scenario: dict) -> bool:
    curves = scenario.get("curves")
    return (
        bool(curves)
        and isinstance(curves, list)
        and isinstance(curves[0], list)
        and bool(curves[0])
        and isinstance(curves[0][0], list)
    )


def _build_scheduler_policy(args: argparse.Namespace):
    """Scheduler policy from CLI flags, or ``None`` to stay unsupervised.

    Either of ``--chaos``/``--max-retries`` opts into a supervision
    policy; ``REPRO_CHAOS`` alone also does (resolved downstream by the
    study runner).
    """
    if args.chaos is None and args.max_retries is None:
        return None
    from repro.simulation.faults import chaos_from_env, load_chaos
    from repro.simulation.scheduler import SchedulerPolicy

    chaos = load_chaos(args.chaos) if args.chaos is not None else chaos_from_env()
    kwargs: Dict[str, object] = {"chaos": chaos}
    if args.max_retries is not None:
        kwargs["max_retries"] = args.max_retries
    return SchedulerPolicy(**kwargs)  # type: ignore[arg-type]


def _adaptive_options(args: argparse.Namespace) -> Dict[str, object]:
    """The adaptive request the ``--target-ci``/``--max-trials``/
    ``--block-trials`` flags spell (see :func:`policy_from_options`)."""
    return {
        key: getattr(args, key)
        for key in ADAPTIVE_OPTIONS
        if getattr(args, key) is not None
    }


def _run_study_file(args: argparse.Namespace) -> int:
    from repro.study import Study, render_study_result

    path = pathlib.Path(args.file)
    if not path.exists():
        raise ExperimentError(f"no such study file: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParameterError(f"study file {path} does not parse as JSON: {exc}")

    overrides = parse_overrides(args.overrides or [])
    if overrides:
        if isinstance(data, dict) and "scenarios" in data:
            scenarios = data["scenarios"]
        elif isinstance(data, list):
            scenarios = data
        else:
            scenarios = [data]
        for scenario in scenarios:
            if isinstance(scenario, dict):
                had_grid = "num_nodes_grid" in scenario
                scenario.update(overrides)
                # A size-grid override replaces a pinned size and vice
                # versa — the two declarations are mutually exclusive.
                if "num_nodes_grid" in overrides:
                    if "num_nodes" not in overrides:
                        scenario.pop("num_nodes", None)
                elif "num_nodes" in overrides and had_grid:
                    scenario.pop("num_nodes_grid", None)
                    # Per-size axes have no single-size meaning; demand
                    # explicit replacements rather than failing deep in
                    # scenario validation.
                    leftover = [
                        field
                        for field, per_size in (
                            ("ring_sizes", _is_per_size_rings(scenario)),
                            ("curves", _is_per_size_curves(scenario)),
                            ("pool_size", isinstance(scenario.get("pool_size"), list)),
                        )
                        if per_size and field not in overrides
                    ]
                    if leftover:
                        raise ExperimentError(
                            f"--set num_nodes replaces this file's "
                            f"num_nodes_grid, but its per-size "
                            f"{'/'.join(leftover)} cannot be kept; also pass "
                            + " ".join(f"--set {f}=..." for f in leftover)
                        )

    study = Study.from_dict(data)
    scheduler = _build_scheduler_policy(args)
    policy = policy_from_options(_adaptive_options(args))
    if policy is not None:
        if args.cache:
            raise ExperimentError(
                "--target-ci does not combine with --cache: adaptive runs "
                "do not use the result cache"
            )
        from repro.study import run_adaptive_study

        result = run_adaptive_study(
            study, policy, workers=args.workers, scheduler=scheduler
        )
    elif args.cache:
        from repro.service.cache import ResultCache, run_cached

        result = run_cached(
            study, ResultCache(args.cache), workers=args.workers, scheduler=scheduler
        )
    else:
        result = study.run(workers=args.workers, scheduler=scheduler)
    print(render_study_result(result))
    adaptive = result.provenance.get("adaptive")
    if isinstance(adaptive, dict):
        print(
            f"\nadaptive: {len(adaptive['rounds'])} extension rounds, "
            f"{adaptive['trials_spent']} cell-trials spent "
            f"(max cell {adaptive['max_cell_trials']}, "
            f"{adaptive['savings_vs_fixed']}x savings vs fixed-trial)"
        )
    cache_info = result.provenance.get("cache")
    if isinstance(cache_info, dict):
        delta = cache_info.get("delta_window")
        detail = f", delta trials {delta}" if delta else ""
        print(
            f"\ncache: {cache_info['disposition']} "
            f"({cache_info['executed_units']} work units executed{detail})"
        )
    faults = result.provenance.get("faults")
    if isinstance(faults, dict):
        from repro.simulation.scheduler import FaultReport

        report = FaultReport(
            **{
                name: faults.get(name, 0)
                for name in FaultReport._COUNTERS
            },
            dead_units=list(faults.get("dead_units", ())),
        )
        print(f"\nfaults: {report.summary()}")
        if report.dead_units:
            print(
                "warning: partial result — dead work units left NaN "
                "(unevaluated) cells; raise --max-retries to converge"
            )
    if args.save:
        result.save(args.save)
        print(f"\nsaved: {args.save}")
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    from repro.service.cache import ResultCache
    from repro.service.queue import StudyService

    cache = ResultCache(args.cache) if args.cache else None
    service = StudyService(
        args.spool,
        cache=cache,
        workers=args.workers,
        max_concurrent=args.max_concurrent,
    )
    print(
        f"serving spool {service.spool} "
        f"(cache: {args.cache or 'off'}, max-concurrent: {args.max_concurrent})",
        flush=True,
    )
    executed = service.serve_forever(
        max_jobs=args.max_jobs, idle_timeout=args.idle_timeout
    )
    print(f"served {executed} job(s)")
    return 0


def _submit_job_id(path: pathlib.Path) -> str:
    import time

    return f"{path.stem}-{time.time_ns():x}"


def _run_submit(args: argparse.Namespace) -> int:
    import time

    from repro.service.queue import JOB_FORMAT

    path = pathlib.Path(args.file)
    if not path.exists():
        raise ExperimentError(f"no such study file: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParameterError(f"study file {path} does not parse as JSON: {exc}")
    options = _adaptive_options(args)
    policy_from_options(options)  # refuse a bad request before queueing it
    spool = pathlib.Path(args.spool)
    jobs_dir = spool / "jobs"
    jobs_dir.mkdir(parents=True, exist_ok=True)
    job_id = _submit_job_id(path)
    job_path = jobs_dir / f"{job_id}.json"
    tmp = job_path.with_name(job_path.name + ".tmp")
    tmp.write_text(
        json.dumps({"format": JOB_FORMAT, "study": data, "options": options})
    )
    tmp.replace(job_path)  # atomic: the server never reads a torn job
    print(f"submitted {job_id}")
    if not args.wait:
        return 0

    status_path = spool / "status" / f"{job_id}.json"
    events_path = spool / "events" / f"{job_id}.jsonl"
    deadline = time.time() + args.timeout
    events_offset = 0
    state = "queued"
    while time.time() < deadline:
        if events_path.exists():
            with open(events_path) as stream:
                stream.seek(events_offset)
                for line in stream:
                    print(f"  event: {line.rstrip()}")
                events_offset = stream.tell()
        try:
            status = json.loads(status_path.read_text())
        except (OSError, json.JSONDecodeError):
            status = None
        if isinstance(status, dict):
            state = str(status.get("state", state))
            if state in ("done", "failed"):
                print(json.dumps(status, indent=2, sort_keys=True))
                return 0 if state == "done" else 1
        time.sleep(0.2)
    print(f"timed out after {args.timeout}s waiting for {job_id} (state: {state})")
    return 1


def _run_status(args: argparse.Namespace) -> int:
    spool = pathlib.Path(args.spool)
    status_dir = spool / "status"
    if args.job is None:
        rows = []
        for path in sorted(status_dir.glob("*.json")):
            try:
                status = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            cache = status.get("cache") or {}
            rows.append(
                f"{status.get('job_id', path.stem):40} "
                f"{status.get('state', '?'):8} "
                f"units={status.get('units', '-')} "
                f"cache={cache.get('disposition', '-')}"
            )
        if not rows:
            print(f"no jobs in spool {spool}")
        else:
            print("\n".join(rows))
        return 0
    status_path = status_dir / f"{args.job}.json"
    try:
        status = json.loads(status_path.read_text())
    except (OSError, json.JSONDecodeError):
        raise ExperimentError(f"no status for job {args.job!r} in spool {spool}")
    print(json.dumps(status, indent=2, sort_keys=True))
    events_path = spool / "events" / f"{args.job}.jsonl"
    if events_path.exists() and args.events > 0:
        lines = events_path.read_text().splitlines()
        shown = lines[-args.events :]
        print(f"\nevents (last {len(shown)} of {len(lines)}):")
        for line in shown:
            print(f"  {line}")
    return 0


def _run_lint(args: argparse.Namespace) -> int:
    from repro.analysis import lint_paths, render_json, render_text
    from repro.analysis.reporters import render_rule_listing
    from repro.exceptions import AnalysisError

    if args.list_rules:
        print(render_rule_listing())
        return 0

    try:
        result = lint_paths(
            args.paths,
            select=args.select.split(",") if args.select else None,
            ignore=args.ignore.split(",") if args.ignore else None,
        )
    except AnalysisError as exc:
        # Configuration problems (unknown rule, bad path, no python
        # files) are exit code 2: distinguishable from findings (1) in CI.
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result, verbose=args.verbose))
    return result.exit_code


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "lint":
        return _run_lint(args)

    if args.command == "list":
        for spec in list_experiments():
            print(f"{spec.name:16} {spec.paper_anchor:42} {spec.description}")
        return 0

    if args.command == "run":
        spec = get_experiment(args.name)
        kwargs = _strip_unsupported(spec, _run_kwargs(args, spec.run))
        result = spec.run(**kwargs)
        print(spec.render(result))
        if args.save:
            save_result(result, args.save)
            print(f"\nsaved: {args.save}")
        return 0

    if args.command == "all":
        overrides = parse_overrides(getattr(args, "overrides", []) or [])
        for spec in list_experiments():
            kwargs = _strip_unsupported(spec, _run_kwargs(args))
            params, accepts_var_kw = _run_signature(spec.run)
            for key, value in overrides.items():
                if accepts_var_kw or key in params:
                    kwargs[key] = value
                else:
                    print(
                        f"warning: {spec.name} does not accept --set {key}; skipped",
                        file=sys.stderr,
                    )
            print(f"=== {spec.name} — {spec.paper_anchor} ===")
            result = spec.run(**kwargs)
            print(spec.render(result))
            print()
        return 0

    if args.command == "study":
        return _run_study_file(args)

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "submit":
        return _run_submit(args)

    if args.command == "status":
        return _run_status(args)

    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
