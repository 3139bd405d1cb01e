"""Experiment registry: names → Scenario/Study declarations + renderers.

Single source of truth used by the CLI (``python -m repro``) and by the
benchmark harness, so "every table and figure" is enumerable in one
place.  Since the Scenario/Study redesign, a registered Monte Carlo
experiment is a *declaration*: its ``build_study`` callable maps the
experiment's keyword arguments to a :class:`repro.study.Study` (a set
of frozen, JSON-round-trippable scenarios), its ``run`` callable
executes that study through the shared-deployment compiler and
interprets the :class:`~repro.study.StudyResult` into the experiment's
:class:`~repro.simulation.results.ExperimentResult`, and ``render``
formats the tables.  Every Monte Carlo experiment except ``coupling``
samples through the study compiler; ``tests/oracle.py`` re-samples
each one cell by cell, independently, as the statistical reference.

``build_study`` is ``None`` for the two experiments without a
scenario declaration: ``kstar`` is purely analytic, and ``coupling``
draws its Lemma 5 coupled ring pair per trial on the trial engine.

To run a workload that is not registered here, write the scenarios as
JSON and use ``repro study FILE.json`` — no Python required.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional

from repro.exceptions import ExperimentError
from repro.simulation.results import ExperimentResult

__all__ = ["ExperimentSpec", "REGISTRY", "get_experiment", "list_experiments"]


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """One runnable experiment with its paper anchor.

    ``build_study`` exposes the declaration itself (``None`` for
    ``kstar`` and ``coupling``): callers can compile, inspect, merge, or
    serialize the scenarios without running anything.
    """

    name: str
    paper_anchor: str
    description: str
    run: Callable[..., ExperimentResult]
    render: Callable[[ExperimentResult], str]
    build_study: Optional[Callable] = None


def _build_registry() -> Dict[str, ExperimentSpec]:
    from repro.experiments import (
        attack_tradeoff,
        coupling_check,
        degree_poisson,
        disk_comparison,
        figure1,
        giant_component,
        het_mindegree,
        het_zero_one,
        kstar,
        mindegree_equiv,
        resilience,
        theorem1_check,
        zero_one,
    )

    specs = [
        ExperimentSpec(
            name="figure1",
            paper_anchor="Figure 1 (Section IV)",
            description="Empirical P[connected] vs K for six (q, p) curves.",
            run=figure1.run_figure1,
            render=figure1.render_figure1,
            build_study=figure1.build_figure1_study,
        ),
        ExperimentSpec(
            name="kstar",
            paper_anchor="Eq. (9) thresholds (Section IV, in-text)",
            description="Minimal K* clearing ln n / n, exact vs asymptotic.",
            run=kstar.run_kstar,
            render=kstar.render_kstar,
        ),
        ExperimentSpec(
            name="theorem1",
            paper_anchor="Theorem 1, Eqs. (7)-(8)",
            description="Empirical P[k-connected] vs exp(-e^-a/(k-1)!) on an α grid.",
            run=theorem1_check.run_theorem1_check,
            render=theorem1_check.render_theorem1_check,
            build_study=theorem1_check.build_theorem1_study,
        ),
        ExperimentSpec(
            name="zero_one",
            paper_anchor="Theorem 1 zero-one law, Eqs. (8b)-(8c)",
            description="Transition sharpening toward 0/1 as n grows at fixed ±α.",
            run=zero_one.run_zero_one,
            render=zero_one.render_zero_one,
            build_study=zero_one.build_zero_one_study,
        ),
        ExperimentSpec(
            name="mindegree",
            paper_anchor="Lemma 8 (Section VIII)",
            description="Min-degree law and per-sample equivalence with k-connectivity.",
            run=mindegree_equiv.run_mindegree_equiv,
            render=mindegree_equiv.render_mindegree_equiv,
            build_study=mindegree_equiv.build_mindegree_study,
        ),
        ExperimentSpec(
            name="het_zero_one",
            paper_anchor="Section IX extension (Eletreby-Yagan class mix)",
            description="Heterogeneous zero-one law: class-mix sharpening at fixed ±α.",
            run=het_zero_one.run_het_zero_one,
            render=het_zero_one.render_het_zero_one,
            build_study=het_zero_one.build_het_zero_one_study,
        ),
        ExperimentSpec(
            name="het_mindegree",
            paper_anchor="Section IX extension (Eletreby-Yagan class mix, Lemma 8)",
            description="Heterogeneous min-degree law and k-connectivity equivalence.",
            run=het_mindegree.run_het_mindegree,
            render=het_mindegree.render_het_mindegree,
            build_study=het_mindegree.build_het_mindegree_study,
        ),
        ExperimentSpec(
            name="degree_poisson",
            paper_anchor="Lemma 9 (Section VIII)",
            description="Poisson law for the number of degree-h nodes.",
            run=degree_poisson.run_degree_poisson,
            render=degree_poisson.render_degree_poisson,
            build_study=degree_poisson.build_degree_poisson_study,
        ),
        ExperimentSpec(
            name="coupling",
            paper_anchor="Lemmas 5-6 (Section VII)",
            description="Binomial-ring coupling success and subset validity.",
            run=coupling_check.run_coupling_check,
            render=coupling_check.render_coupling_check,
        ),
        ExperimentSpec(
            name="attack",
            paper_anchor="Section I motivation (Chan et al. tradeoff)",
            description="Capture-attack compromise fraction vs q, simulated + analytic.",
            run=attack_tradeoff.run_attack_tradeoff,
            render=attack_tradeoff.render_attack_tradeoff,
            build_study=attack_tradeoff.build_attack_study,
        ),
        ExperimentSpec(
            name="disk",
            paper_anchor="Section IX open question",
            description="Disk vs on/off channels at matched edge probability.",
            run=disk_comparison.run_disk_comparison,
            render=disk_comparison.render_disk_comparison,
            build_study=disk_comparison.build_disk_study,
        ),
        ExperimentSpec(
            name="giant",
            paper_anchor="Section IX related work (component evolution)",
            description="Giant-component emergence vs the ER branching limit.",
            run=giant_component.run_giant_component,
            render=giant_component.render_giant_component,
            build_study=giant_component.build_giant_study,
        ),
        ExperimentSpec(
            name="resilience",
            paper_anchor="Section IX related work (capture resilience, ref. [36])",
            description="Connectivity over uncompromised links after capture.",
            run=resilience.run_resilience,
            render=resilience.render_resilience,
            build_study=resilience.build_resilience_study,
        ),
    ]
    return {spec.name: spec for spec in specs}


REGISTRY: Dict[str, ExperimentSpec] = _build_registry()


def get_experiment(name: str) -> ExperimentSpec:
    """Look up an experiment by name; raise with suggestions if unknown."""
    try:
        return REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise ExperimentError(f"unknown experiment {name!r}; known: {known}")


def list_experiments() -> List[ExperimentSpec]:
    """All experiments in registration order."""
    return list(REGISTRY.values())
