"""Result containers with JSON round-tripping.

Experiments emit :class:`CurvePoint` rows (one per parameter point) that
bundle the empirical estimate with the theory prediction evaluated at
the same point, so EXPERIMENTS.md tables can be regenerated from saved
JSON without re-simulating.

These are the *interpreted* per-experiment tables.  The raw per-trial
value tensors produced by the declarative layer live in
:class:`repro.study.StudyResult` (saved by ``repro study --save``);
an :class:`ExperimentResult` is what a registry experiment's
``from_study`` interpretation distills out of one.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Dict, List, Mapping, Optional, Union

from repro.exceptions import ExperimentError
from repro.simulation.estimators import BernoulliEstimate

__all__ = ["CurvePoint", "ExperimentResult", "save_result", "load_result"]

_ESTIMATE_FIELDS = frozenset(f.name for f in dataclasses.fields(BernoulliEstimate))


def _mapping(value: object, what: str) -> Mapping[str, object]:
    if not isinstance(value, Mapping):
        raise ExperimentError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _field(data: Mapping[str, object], key: str, what: str) -> object:
    if key not in data:
        raise ExperimentError(f"{what} is missing field {key!r}")
    return data[key]


def _number(value: object, what: str) -> object:
    """*value* if it is a JSON number that fits a float, else ExperimentError."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            float(value)  # an int beyond float range breaks gap arithmetic
        except OverflowError:
            pass
        else:
            return value
    raise ExperimentError(f"{what} must be a number, got {value!r}")


@dataclasses.dataclass(frozen=True)
class CurvePoint:
    """One sweep point: varied parameters, estimate, and prediction."""

    point: Dict[str, float]
    estimate: BernoulliEstimate
    prediction: Optional[float] = None

    def gap(self) -> Optional[float]:
        """Signed empirical-minus-predicted gap, if a prediction exists."""
        if self.prediction is None:
            return None
        return self.estimate.estimate - self.prediction

    def to_dict(self) -> Dict[str, object]:
        return {
            "point": dict(self.point),
            "estimate": self.estimate.to_dict(),
            "prediction": self.prediction,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CurvePoint":
        """Rebuild a point; malformed payloads raise :class:`ExperimentError`."""
        data = _mapping(data, "curve point")
        point = _mapping(_field(data, "point", "curve point"), "curve point 'point'")
        est = _mapping(_field(data, "estimate", "curve point"), "curve point 'estimate'")
        if set(est) != _ESTIMATE_FIELDS:
            raise ExperimentError(
                f"curve point 'estimate' needs fields {sorted(_ESTIMATE_FIELDS)}, "
                f"got {sorted(map(str, est))}"
            )
        prediction = data.get("prediction")
        if prediction is not None:
            prediction = _number(prediction, "curve point 'prediction'")
        return cls(
            point=dict(point),  # type: ignore[arg-type]
            estimate=BernoulliEstimate(  # type: ignore[arg-type]
                **{k: _number(v, f"curve point estimate {k!r}") for k, v in est.items()}
            ),
            prediction=prediction,  # type: ignore[arg-type]
        )


@dataclasses.dataclass(frozen=True)
class ExperimentResult:
    """A named experiment run: configuration + all sweep points."""

    name: str
    config: Dict[str, object]
    points: List[CurvePoint]

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "config": dict(self.config),
            "points": [p.to_dict() for p in self.points],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ExperimentResult":
        """Rebuild a result; malformed payloads raise :class:`ExperimentError`."""
        data = _mapping(data, "experiment result")
        name = _field(data, "name", "experiment result")
        config = _mapping(
            _field(data, "config", "experiment result"), "experiment result 'config'"
        )
        points = _field(data, "points", "experiment result")
        if not isinstance(points, list):
            raise ExperimentError(
                f"experiment result 'points' must be a JSON array, got {type(points).__name__}"
            )
        return cls(
            name=str(name),
            config=dict(config),
            points=[CurvePoint.from_dict(p) for p in points],
        )

    def max_abs_gap(self) -> float:
        """Largest |empirical - predicted| over points with predictions."""
        gaps = [abs(p.gap()) for p in self.points if p.gap() is not None]
        return max(gaps) if gaps else float("nan")


PathLike = Union[str, pathlib.Path]


def save_result(result: ExperimentResult, path: PathLike) -> None:
    """Write an experiment result as pretty-printed JSON."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result.to_dict(), indent=2, sort_keys=True))


def _read_json(path: PathLike) -> object:
    """Parse the JSON file at *path*; invalid JSON raises ExperimentError."""
    path = pathlib.Path(path)
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ExperimentError(f"{path} is not valid JSON: {exc}") from exc


def load_result(path: PathLike) -> ExperimentResult:
    """Read an experiment result saved by :func:`save_result`."""
    return ExperimentResult.from_dict(_read_json(path))  # type: ignore[arg-type]
