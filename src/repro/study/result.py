"""Typed study results: full per-trial value arrays + estimators.

A :class:`ScenarioResult` keeps the raw value tensor — shape
``(rings, trials, curves, metrics)`` for plain scenarios and
``(sizes, rings, trials, curves, metrics)`` for size-grid scenarios —
rather than pre-aggregated counts.  That is what makes the declarative
layer as expressive as the bespoke loops it replaced: Bernoulli
estimates, means/variances, histograms, agreement rates between two
metrics measured on the *same* deployments, and ratio estimates
(attack compromise fractions) are all cheap post-processing of the
tensor, and saved results can be re-analyzed without re-simulating.

Whether a metric is Bernoulli-estimable is decided by its
:class:`~repro.study.scenario.MetricSpec` (``is_indicator``), never by
inspecting the measured values: a value metric that happens to be
pinned at 0/1 (e.g. ``giant_fraction`` at saturating ``p``) is still a
value metric and renders as mean ± std.

Partial results and merging
---------------------------
A :class:`ScenarioResult` may cover only a *window* of a scenario's
trial axis: ``trial_offset`` records the absolute index of its first
trial, and :meth:`ScenarioResult.merge` concatenates two adjacent
windows (rejecting mismatched scenarios, overlapping ranges, gaps, and
incompatible axis shapes).  Because every ``(size, ring, trial)`` cell
is seeded by its absolute trial index and values are assign-only, a
merge of windows ``[0, b)`` and ``[b, t)`` is bit-for-bit the tensor a
one-shot run at ``t`` trials produces — the substrate the adaptive
driver (:mod:`repro.study.adaptive`), the result cache's extensions and
trial-window shards (:mod:`repro.service`) build on.  Cells that a shard did not evaluate hold ``NaN``; the
estimator accessors skip them, so per-cell trial counts may be ragged
(the adaptive driver stops extending converged cells).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ExperimentError, ParameterError, ShardMismatchError
from repro.simulation.estimators import BernoulliEstimate
from repro.simulation.results import _field, _mapping, _read_json
from repro.simulation.scheduler import combine_fault_reports
from repro.study.scenario import STREAM_VERSION, Curve, Scenario
from repro.utils.tables import format_table

__all__ = ["ScenarioResult", "StudyResult", "render_study_result"]


def _library_version() -> str:
    # Imported lazily: repro/__init__ must stay importable before its
    # submodules finish loading.
    import repro

    return str(getattr(repro, "__version__", "unknown"))


@dataclasses.dataclass(frozen=True)
class ScenarioResult:
    """All measured values of one scenario.

    For a plain scenario ``values[r, t, c, m]`` is metric ``m`` of
    curve ``c`` measured on deployment ``(ring_sizes[r], trial t)``.
    A size-grid scenario carries the size axis in front:
    ``values[s, r, t, c, m]`` for deployment ``(num_nodes_grid[s],
    ring s/r, trial t)``.  ``metric_labels`` are the scenario's own,
    in order.

    ``trial_offset`` is the absolute trial index of the tensor's first
    trial slot: a full run has offset 0; an extension shard produced by
    :meth:`~repro.study.compiler.Study.run_extension` covering trials
    ``[a, b)`` has offset ``a`` (and ``scenario.trials == b - a``).
    ``NaN`` entries mark cells a shard did not evaluate; estimator
    accessors skip them.
    """

    scenario: Scenario
    values: np.ndarray
    metric_labels: Tuple[str, ...]
    trial_offset: int = 0

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        expected = 5 if self.scenario.sized else 4
        shape = (
            "(sizes, rings, trials, curves, metrics)"
            if self.scenario.sized
            else "(rings, trials, curves, metrics)"
        )
        if values.ndim != expected:
            raise ExperimentError(
                f"values must have shape {shape}, got {values.shape}"
            )
        if not isinstance(self.trial_offset, int) or isinstance(
            self.trial_offset, bool
        ) or self.trial_offset < 0:
            raise ExperimentError(
                f"trial_offset must be a non-negative int, got {self.trial_offset!r}"
            )
        labels = tuple(self.metric_labels)
        if labels != self.scenario.metric_labels():
            raise ExperimentError(
                f"metric_labels {list(labels)} do not match scenario "
                f"{self.scenario.name!r} metrics {list(self.scenario.metric_labels())}"
            )
        object.__setattr__(self, "metric_labels", labels)

    # -- trial window --------------------------------------------------

    @property
    def num_trials(self) -> int:
        """Length of the trial axis (slots, including unevaluated NaNs)."""
        return int(self.values.shape[-3])

    @property
    def trial_range(self) -> Tuple[int, int]:
        """Absolute trial window ``[start, stop)`` this result covers."""
        return (self.trial_offset, self.trial_offset + self.num_trials)

    # -- merging -------------------------------------------------------

    def merge(self, other: "ScenarioResult") -> "ScenarioResult":
        """Concatenate an adjacent trial window of the same scenario.

        The two results must describe the same scenario (every field
        except ``trials`` equal — same axes, curves, metrics, channel,
        and seed, so their deployments come from the same deterministic
        stream) and cover abutting trial ranges in either order.
        Overlaps and gaps are rejected: values are assign-only, so an
        overlap would mean the same ``(cell, trial)`` was computed
        twice (a scheduling bug), and a gap would silently misalign
        absolute trial indices against their seeds.
        """
        if not isinstance(other, ScenarioResult):
            raise ExperimentError(
                f"can only merge ScenarioResult, got {type(other).__name__}"
            )
        diffs = [
            field.name
            for field in dataclasses.fields(Scenario)
            if field.name != "trials"
            and getattr(self.scenario, field.name)
            != getattr(other.scenario, field.name)
        ]
        if diffs or self.scenario.content_hash() != other.scenario.content_hash():
            mine = self.scenario.content_hash()[:12]
            theirs = other.scenario.content_hash()[:12]
            raise ShardMismatchError(
                f"cannot merge results of mismatched scenarios "
                f"{self.scenario.name!r} / {other.scenario.name!r}: "
                f"fields {diffs} differ "
                f"(content hashes {mine} vs {theirs})"
            )
        if self.metric_labels != other.metric_labels:
            raise ExperimentError(
                f"cannot merge: metric labels differ "
                f"({self.metric_labels} vs {other.metric_labels})"
            )
        mine = self.values.shape[:-3] + self.values.shape[-2:]
        theirs = other.values.shape[:-3] + other.values.shape[-2:]
        if mine != theirs:
            raise ExperimentError(
                f"cannot merge: axis shapes differ outside the trial axis "
                f"({self.values.shape} vs {other.values.shape})"
            )
        first, second = (
            (self, other) if self.trial_offset <= other.trial_offset else (other, self)
        )
        end = first.trial_offset + first.num_trials
        if second.trial_offset < end:
            raise ExperimentError(
                f"cannot merge overlapping trial ranges {first.trial_range} "
                f"and {second.trial_range} of scenario {self.scenario.name!r}"
            )
        if second.trial_offset > end:
            raise ExperimentError(
                f"cannot merge non-adjacent trial ranges {first.trial_range} "
                f"and {second.trial_range} of scenario {self.scenario.name!r} "
                f"(gap of {second.trial_offset - end} trials)"
            )
        total = first.num_trials + second.num_trials
        return ScenarioResult(
            scenario=self.scenario.with_trials(total),
            values=np.concatenate((first.values, second.values), axis=-3),
            metric_labels=self.metric_labels,
            trial_offset=first.trial_offset,
        )

    def truncated(self, trials: int) -> "ScenarioResult":
        """The first *trials* trial slots of this result's window.

        Used by the result cache to answer a t-trial query from a
        stored result covering more: slots are addressed by absolute
        trial index, so a prefix of the stored tensor is bit-identical
        to what a fresh ``trials=t`` run would produce.
        """
        if not isinstance(trials, int) or isinstance(trials, bool):
            raise ExperimentError(f"trials must be an int, got {trials!r}")
        if not 0 < trials <= self.num_trials:
            raise ExperimentError(
                f"cannot truncate {self.num_trials}-trial window of scenario "
                f"{self.scenario.name!r} to {trials} trials"
            )
        if trials == self.num_trials:
            return self
        return ScenarioResult(
            scenario=self.scenario.with_trials(trials),
            values=np.ascontiguousarray(self.values[..., :trials, :, :]),
            metric_labels=self.metric_labels,
            trial_offset=self.trial_offset,
        )

    # -- index helpers -------------------------------------------------

    def _size_index(self, size: Optional[int]) -> int:
        sizes = self.scenario.sizes
        if size is None:
            if len(sizes) != 1:
                raise ExperimentError(
                    f"scenario {self.scenario.name!r} has {len(sizes)} sizes "
                    f"{sizes}; pass size= explicitly"
                )
            return 0
        if size not in sizes:
            raise ExperimentError(
                f"size {size} not in scenario {self.scenario.name!r} "
                f"sizes {sizes}"
            )
        return sizes.index(size)

    def _ring_index(self, ring: Optional[int], size_index: int) -> int:
        rings = self.scenario.ring_sizes_at(size_index)
        if ring is None:
            if len(rings) != 1:
                raise ExperimentError(
                    f"scenario {self.scenario.name!r} has {len(rings)} ring "
                    "sizes; pass ring= explicitly"
                )
            return 0
        if ring not in rings:
            raise ExperimentError(
                f"ring {ring} not in scenario {self.scenario.name!r} "
                f"ring_sizes {rings}"
            )
        return rings.index(ring)

    def _curve_index(self, curve: Optional[Curve], size_index: int) -> int:
        curves = self.scenario.curves_at(size_index)
        if curve is None:
            if len(curves) != 1:
                raise ExperimentError(
                    f"scenario {self.scenario.name!r} has {len(curves)} "
                    "curves; pass curve= explicitly"
                )
            return 0
        curve = (int(curve[0]), float(curve[1]))
        if curve not in curves:
            raise ExperimentError(
                f"curve {curve} not in scenario {self.scenario.name!r} "
                f"curves {curves}"
            )
        return curves.index(curve)

    def _metric_index(self, metric: Optional[str]) -> int:
        if metric is None:
            if len(self.metric_labels) != 1:
                raise ExperimentError(
                    f"scenario {self.scenario.name!r} has metrics "
                    f"{self.metric_labels}; pass metric= explicitly"
                )
            return 0
        if metric not in self.metric_labels:
            raise ExperimentError(
                f"metric {metric!r} not measured; available: {self.metric_labels}"
            )
        return self.metric_labels.index(metric)

    def _metric_is_indicator(self, index: int) -> bool:
        """Whether the metric at *index* is Bernoulli-estimable (its spec)."""
        return self.scenario.metrics[index].is_indicator

    # -- estimators ----------------------------------------------------

    def _cell(
        self, size_index: int, ring_index: int, curve_index: int, metric_index: int
    ) -> np.ndarray:
        """Raw per-trial slot values of one cell (NaNs included)."""
        cell = (ring_index, slice(None), curve_index, metric_index)
        if self.scenario.sized:
            return self.values[(size_index,) + cell]
        return self.values[cell]

    def series_at(
        self, size_index: int, ring_index: int, curve_index: int, metric_index: int
    ) -> np.ndarray:
        """Index-addressed evaluated values of one cell (NaNs dropped).

        The positional sibling of :meth:`series`, used by drivers that
        iterate the axes directly (the adaptive stopping rule).
        """
        series = self._cell(size_index, ring_index, curve_index, metric_index)
        mask = np.isnan(series)
        return series[~mask] if mask.any() else series

    def series(
        self,
        metric: Optional[str] = None,
        curve: Optional[Curve] = None,
        ring: Optional[int] = None,
        size: Optional[int] = None,
    ) -> np.ndarray:
        """Per-trial values of one ``(size, ring, curve, metric)`` cell.

        *size* is the network's node count (an entry of
        ``num_nodes_grid``); it may be omitted for plain scenarios and
        one-size grids, like *ring* and *curve* for one-entry axes.
        Trial slots the result never evaluated (``NaN`` — converged
        cells an adaptive run stopped extending) are dropped, so the
        returned length is the cell's actual sample size.
        """
        si = self._size_index(size)
        return self.series_at(
            si,
            self._ring_index(ring, si),
            self._curve_index(curve, si),
            self._metric_index(metric),
        )

    def cell_trials(
        self,
        metric: Optional[str] = None,
        curve: Optional[Curve] = None,
        ring: Optional[int] = None,
        size: Optional[int] = None,
    ) -> int:
        """Evaluated trial count of one cell (its actual sample size)."""
        return int(self.series(metric, curve, ring, size).size)

    def successes(
        self,
        metric: Optional[str] = None,
        curve: Optional[Curve] = None,
        ring: Optional[int] = None,
        size: Optional[int] = None,
    ) -> int:
        return int(self.series(metric, curve, ring, size).sum())

    def bernoulli(
        self,
        metric: Optional[str] = None,
        curve: Optional[Curve] = None,
        ring: Optional[int] = None,
        size: Optional[int] = None,
    ) -> BernoulliEstimate:
        """Wilson-interval estimate of an indicator metric."""
        series = self.series(metric, curve, ring, size)
        if series.size == 0:
            raise ExperimentError(
                f"cell has no evaluated trials for metric {metric!r} "
                f"(skipped in this shard? merge shards first, or check "
                f"cell_trials())"
            )
        if not self._metric_is_indicator(self._metric_index(metric)):
            raise ExperimentError(
                f"metric {metric!r} is not an indicator; use series()/mean()"
            )
        return BernoulliEstimate.from_counts(int(series.sum()), series.size)

    def mean(
        self,
        metric: Optional[str] = None,
        curve: Optional[Curve] = None,
        ring: Optional[int] = None,
        size: Optional[int] = None,
    ) -> float:
        series = self.series(metric, curve, ring, size)
        if series.size == 0:
            raise ExperimentError(
                f"cell has no evaluated trials for metric {metric!r} "
                f"(skipped in this shard? merge shards first, or check "
                f"cell_trials())"
            )
        return float(series.mean())

    def agreement(
        self,
        metric_a: str,
        metric_b: str,
        curve: Optional[Curve] = None,
        ring: Optional[int] = None,
        size: Optional[int] = None,
    ) -> float:
        """Fraction of deployments where two metrics coincide.

        Meaningful because both metrics were measured on the *same*
        sampled worlds — the common-random-numbers payoff.  Only trials
        where both metrics were evaluated enter the rate.
        """
        si = self._size_index(size)
        ri = self._ring_index(ring, si)
        ci = self._curve_index(curve, si)
        a = self._cell(si, ri, ci, self._metric_index(metric_a))
        b = self._cell(si, ri, ci, self._metric_index(metric_b))
        valid = ~(np.isnan(a) | np.isnan(b))
        if not valid.any():
            raise ExperimentError(
                f"no trials evaluated both {metric_a!r} and {metric_b!r} in "
                f"this cell (skipped in this shard? merge shards first)"
            )
        return float((a[valid] == b[valid]).mean())

    def to_dict(self) -> Dict[str, object]:
        # Unevaluated slots serialize as null, not NaN: saved results
        # are read by other JSON tools, and bare NaN tokens are
        # invalid under RFC 8259 (jq / JSON.parse reject them).
        # ``from_dict``'s float64 coercion maps null back to NaN.
        nan_mask = np.isnan(self.values)
        values = (
            np.where(nan_mask, None, self.values) if nan_mask.any() else self.values
        )
        out: Dict[str, object] = {
            "scenario": self.scenario.to_dict(),
            "scenario_hash": self.scenario.content_hash(),
            "stream_version": STREAM_VERSION,
            "version": _library_version(),
            "metric_labels": list(self.metric_labels),
            "values": values.tolist(),
        }
        if self.trial_offset:
            out["trial_offset"] = self.trial_offset
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ScenarioResult":
        """Rebuild a result; malformed payloads raise :class:`ExperimentError`."""
        what = "scenario result"
        data = _mapping(data, what)
        raw_scenario = _mapping(_field(data, "scenario", what), f"{what} 'scenario'")
        # Before the scenario parses or its hash is checked: an older
        # stream's file gets this message, not an unknown-field or
        # hash-mismatch one.
        stream = data.get("stream_version")
        if type(stream) is not int or stream != STREAM_VERSION:
            raise ExperimentError(
                f"{what} was sampled by stream version {stream!r}, but this "
                f"library samples stream version {STREAM_VERSION}; rerun it"
            )
        try:
            scenario = Scenario.from_dict(raw_scenario)
        except ParameterError as exc:
            raise ExperimentError(f"{what} 'scenario' is invalid: {exc}") from exc
        labels = _field(data, "metric_labels", what)
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise ExperimentError(f"{what} 'metric_labels' must be a list of strings")
        offset = data.get("trial_offset", 0)
        if not isinstance(offset, int):
            raise ExperimentError(f"{what} 'trial_offset' must be an integer, got {offset!r}")
        try:
            values = np.asarray(_field(data, "values", what), dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ExperimentError(f"{what} 'values' is not a numeric array: {exc}") from exc
        axes = scenario.value_axes()
        if values.ndim == len(axes) + 1 and values.shape[:-3] + values.shape[-2:] != axes:
            raise ExperimentError(
                f"{what} 'values' shape {values.shape} does not match scenario "
                f"{scenario.name!r} (expected {axes} around the trial axis)"
            )
        embedded = data.get("scenario_hash")
        if embedded is not None and embedded != scenario.content_hash():
            raise ShardMismatchError(
                f"result for scenario {scenario.name!r} embeds content hash "
                f"{str(embedded)[:12]} but its scenario hashes to "
                f"{scenario.content_hash()[:12]}; the file was edited after "
                f"it was saved"
            )
        return cls(
            scenario=scenario,
            values=values,
            metric_labels=tuple(labels),
            trial_offset=offset,
        )


@dataclasses.dataclass(frozen=True)
class StudyResult:
    """Results of every scenario in a study, plus run provenance."""

    results: Tuple[ScenarioResult, ...]
    provenance: Dict[str, object]

    def __getitem__(self, name: str) -> ScenarioResult:
        for res in self.results:
            if res.scenario.name == name:
                return res
        known = ", ".join(r.scenario.name for r in self.results)
        raise ExperimentError(f"no scenario {name!r} in study result; have: {known}")

    def names(self) -> List[str]:
        return [r.scenario.name for r in self.results]

    def merge(self, other: "StudyResult") -> "StudyResult":
        """Fold another trial window of the same study into this one.

        The one fold of the library: trial shards, adaptive rounds and
        cache extensions all go through it.  Each scenario of *other*
        merges into the same-named scenario of ``self`` per
        :meth:`ScenarioResult.merge`, with its adjacency and
        compatibility checks.  *other* may cover a subset of ``self``'s
        scenarios (an adaptive round extends one deployment family);
        the rest pass through unchanged, and a scenario ``self`` lacks
        is an error.  Provenance stores only work sums and call
        constants (:func:`~repro.study.compiler.run_provenance`).  The
        sums add up: ``units`` and ``deployments`` are summed and the
        ``faults`` reports are combined
        (:func:`~repro.simulation.scheduler.combine_fault_reports`).
        The constants are taken from ``self``.  Trial coverage is not
        provenance: it is each merged result's ``trial_range``.
        """
        theirs = {res.scenario.name: res for res in other.results}
        if not set(theirs) <= set(self.names()):
            raise ExperimentError(
                f"cannot merge study results over different scenario sets: "
                f"{sorted(self.names())} vs {sorted(theirs)}"
            )
        merged = tuple(
            res.merge(theirs[res.scenario.name]) if res.scenario.name in theirs else res
            for res in self.results
        )
        provenance = dict(self.provenance)
        for key in ("units", "deployments"):
            mine, extra = self.provenance.get(key, 0), other.provenance.get(key, 0)
            provenance[key] = int(mine) + int(extra)  # type: ignore[call-overload]
        reports = [self.provenance.get("faults"), other.provenance.get("faults")]
        faults = combine_fault_reports(reports)  # type: ignore[arg-type]
        if faults is not None:
            provenance["faults"] = faults
        return StudyResult(results=merged, provenance=provenance)

    def to_dict(self) -> Dict[str, object]:
        return {
            "provenance": dict(self.provenance),
            "scenarios": [r.to_dict() for r in self.results],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "StudyResult":
        """Rebuild a result; malformed payloads raise :class:`ExperimentError`."""
        data = _mapping(data, "study result")
        scenarios = _field(data, "scenarios", "study result")
        if not isinstance(scenarios, list):
            raise ExperimentError(
                f"study result 'scenarios' must be a JSON array, got {type(scenarios).__name__}"
            )
        provenance = _mapping(data.get("provenance", {}), "study result 'provenance'")
        for key in ("units", "deployments"):
            count = provenance.get(key, 0)
            if not isinstance(count, int) or isinstance(count, bool) or count < 0:
                raise ExperimentError(
                    f"study result provenance {key!r} must be a non-negative int, "
                    f"got {count!r}"
                )
        if "faults" in provenance:
            _mapping(provenance["faults"], "study result provenance 'faults'")
        return cls(
            results=tuple(ScenarioResult.from_dict(r) for r in scenarios),
            provenance=dict(provenance),
        )

    def save(self, path: Union[str, pathlib.Path]) -> None:
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: Union[str, pathlib.Path]) -> "StudyResult":
        return cls.from_dict(_read_json(path))  # type: ignore[arg-type]


def render_study_result(result: StudyResult) -> str:
    """Generic rendering: one table per scenario, one row per cell.

    Indicator metrics (per their :class:`MetricSpec`) get Wilson
    intervals; value metrics get mean ± sample std even when their
    measured values happen to be all 0/1.  Size-grid scenarios emit one
    row per ``(n, K, curve, metric)`` cell.  Per-cell trial counts are
    shown explicitly because adaptive results are ragged: converged
    cells stop accumulating trials while unconverged neighbors keep
    going.  This is the output of ``repro study FILE.json`` for ad-hoc
    scenario files that have no bespoke renderer.
    """
    blocks: List[str] = []
    for res in result.results:
        sc = res.scenario
        rows: List[Sequence[object]] = []
        for si, n in enumerate(sc.sizes):
            for ri, ring in enumerate(sc.ring_sizes_at(si)):
                for ci, (q, p) in enumerate(sc.curves_at(si)):
                    for mi, label in enumerate(res.metric_labels):
                        series = res.series_at(si, ri, ci, mi)
                        if series.size == 0:
                            rows.append([n, ring, q, p, label, 0, "-", "-", "-"])
                        elif res._metric_is_indicator(mi):
                            est = BernoulliEstimate.from_counts(
                                int(series.sum()), series.size
                            )
                            rows.append(
                                [n, ring, q, p, label, series.size,
                                 est.estimate, est.ci_low, est.ci_high]
                            )
                        else:
                            std = float(series.std(ddof=1)) if series.size > 1 else 0.0
                            rows.append(
                                [n, ring, q, p, label, series.size,
                                 float(series.mean()), std, ""]
                            )
        if sc.sized:
            sizing = f"n grid={list(sc.num_nodes_grid)}"
        else:
            sizing = f"n={sc.num_nodes}"
        title = (
            f"scenario {sc.name!r} ({sizing}, "
            f"P={sc.pool_size}, trials={sc.trials}, seed={sc.seed})"
        )
        blocks.append(
            format_table(
                ["n", "K", "q", "p", "metric", "trials",
                 "estimate", "ci_low/std", "ci_high"],
                rows,
                title=title,
            )
        )
    return "\n\n".join(blocks)
