"""Deterministic chaos injection for work-unit execution.

A supervised study run must survive worker loss, lost and corrupted
results, and a broken pool — and CI must *prove* that it still
converges to the one-shot answer.  This module supplies the controlled
adversary: a :class:`FailureInjector` middleware that wraps work-unit
execution with composable failure strategies, each fired by a
*deterministically seeded* per-``(unit, attempt)`` coin flip, so a
chaos run is exactly reproducible from its :class:`ChaosSpec` alone.

Strategies
----------
``crash``
    Raise :class:`~repro.exceptions.InjectedFailure` in the worker
    before the unit executes (a died-mid-unit worker, an OOM kill).
``drop``
    Execute the unit but never return its result (a lost response);
    the supervisor sees a dropped envelope and must retry.
``partial``
    Return a corrupted payload whose integrity checksum no longer
    matches (a truncated or bit-flipped shard); the supervisor must
    detect the mismatch and retry rather than fold bad values in.
``broken_pool``
    Kill the worker process outright (``os._exit``), breaking the
    entire executor; the supervisor must rebuild the pool and
    resubmit every in-flight unit.

Every decision derives from ``SeedSequence(chaos_seed,
spawn_key=(strategy_index, unit_index, attempt))``: independent of
worker count, scheduling order, and wall clock.  Because retried
attempts carry fresh attempt indices, a faulted unit is not condemned
to fault forever — and the optional per-strategy ``max_attempt`` cap
("inject only on the first N attempts") lets the chaos convergence
tests *guarantee* recovery within the retry budget, deterministically.

Specs JSON-round-trip and thread through ``repro study --chaos
FILE_OR_SPEC`` and the ``REPRO_CHAOS`` environment variable (a path or
inline JSON).
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import os
import pathlib
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import InjectedFailure, ParameterError
from repro.utils.rng import grid_seed_sequence
from repro.utils.validation import check_nonnegative_int, check_positive_int

__all__ = [
    "STRATEGY_KINDS",
    "FaultStrategy",
    "ChaosSpec",
    "Injection",
    "FailureInjector",
    "corrupt_payload",
    "load_chaos",
    "chaos_from_env",
    "CHAOS_ENV_VAR",
]

CHAOS_ENV_VAR = "REPRO_CHAOS"

#: The composable failure strategies, in documentation order.
STRATEGY_KINDS: Tuple[str, ...] = (
    "crash",
    "drop",
    "partial",
    "broken_pool",
)

#: Leading spawn-key index of the ``partial`` strategy's corruption
#: stream.  Pinned (it was ``len(STRATEGY_KINDS)`` when there were five
#: kinds) so corruption draws never move when the kinds change.
_PARTIAL_KEY = 5


@dataclasses.dataclass(frozen=True)
class FaultStrategy:
    """One failure mode with its per-``(unit, attempt)`` firing rule.

    Attributes
    ----------
    kind:
        One of :data:`STRATEGY_KINDS`.
    probability:
        Per-execution firing probability in ``[0, 1]``; the coin flip
        is seeded by ``(chaos seed, strategy index, unit, attempt)``.
    max_attempt:
        If set, the strategy only fires while ``attempt <
        max_attempt`` — retries beyond that bound run clean, which
        makes convergence under a bounded retry budget provable
        instead of merely probable.
    """

    kind: str
    probability: float
    max_attempt: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in STRATEGY_KINDS:
            raise ParameterError(
                f"unknown chaos strategy {self.kind!r}; "
                f"known: {', '.join(STRATEGY_KINDS)}"
            )
        p = self.probability
        if not (
            isinstance(p, numbers.Real) and not isinstance(p, bool) and 0.0 <= p <= 1.0
        ):
            raise ParameterError(
                f"strategy {self.kind!r} probability must be a number in "
                f"[0, 1], got {p!r}"
            )
        if self.max_attempt is not None:
            name = f"strategy {self.kind!r} max_attempt"
            object.__setattr__(self, "max_attempt", check_positive_int(self.max_attempt, name))

    def eligible(self, attempt: int) -> bool:
        return self.max_attempt is None or attempt < self.max_attempt

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"kind": self.kind, "probability": self.probability}
        if self.max_attempt is not None:
            out["max_attempt"] = self.max_attempt
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultStrategy":
        if not isinstance(data, dict):
            raise ParameterError(
                f"chaos strategy must be an object, got {type(data).__name__}"
            )
        try:
            strategy = cls(
                kind=data["kind"],  # type: ignore[arg-type]
                probability=data["probability"],  # type: ignore[arg-type]
                max_attempt=data.get("max_attempt"),  # type: ignore[arg-type]
            )
        except KeyError as exc:
            raise ParameterError(
                f"chaos strategy needs 'kind' and 'probability'; missing {exc}"
            ) from exc
        # Checked after the kind, so a spec naming a retired strategy
        # (with its retired fields) fails as an unknown strategy.
        unknown = set(data) - {"kind", "probability", "max_attempt"}
        if unknown:
            raise ParameterError(
                f"unknown chaos strategy fields {sorted(unknown)}"
            )
        return strategy


@dataclasses.dataclass(frozen=True)
class ChaosSpec:
    """A reproducible chaos campaign: a seed plus firing strategies.

    JSON-round-trippable (the ``--chaos`` / ``REPRO_CHAOS`` format):

    .. code-block:: json

        {"seed": 7,
         "strategies": [
             {"kind": "crash", "probability": 0.3, "max_attempt": 2},
             {"kind": "drop", "probability": 0.5}]}
    """

    seed: int = 0
    strategies: Tuple[FaultStrategy, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", check_nonnegative_int(self.seed, "chaos seed"))
        strategies = tuple(
            s if isinstance(s, FaultStrategy) else FaultStrategy.from_dict(s)
            for s in self.strategies
        )
        object.__setattr__(self, "strategies", strategies)

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "strategies": [s.to_dict() for s in self.strategies],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ChaosSpec":
        if not isinstance(data, dict):
            raise ParameterError(
                f"chaos spec must be an object, got {type(data).__name__}"
            )
        unknown = set(data) - {"seed", "strategies"}
        if unknown:
            raise ParameterError(f"unknown chaos spec fields {sorted(unknown)}")
        raw = data.get("strategies", ())
        if not isinstance(raw, Sequence) or isinstance(raw, str):
            raise ParameterError("chaos spec 'strategies' must be a list")
        return cls(
            seed=data.get("seed", 0),  # type: ignore[arg-type]
            strategies=tuple(FaultStrategy.from_dict(s) for s in raw),  # type: ignore[arg-type]
        )

    def to_json(self, **dumps_kwargs: object) -> str:
        dumps_kwargs.setdefault("indent", 2)
        dumps_kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **dumps_kwargs)  # type: ignore[arg-type]

    @classmethod
    def from_json(cls, text: str) -> "ChaosSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"chaos spec does not parse as JSON: {exc}") from exc
        return cls.from_dict(data)


@dataclasses.dataclass(frozen=True)
class Injection:
    """The strategy kinds firing on one ``(unit, attempt)`` execution."""

    fired: Tuple[str, ...] = ()

    @property
    def any(self) -> bool:
        return bool(self.fired)


def _chaos_uniform(seed: int, strategy_index: int, unit_index: int, attempt: int) -> float:
    """The deterministic coin flip behind one strategy decision.

    Strategy decisions use the same ``SeedSequence`` addressing as the
    deployment streams but under the *chaos* seed, with the strategy
    index leading the key — so decisions are independent across
    strategies, units, and attempts, and identical for any worker
    count or scheduling order.
    """
    rng = np.random.default_rng(
        grid_seed_sequence(seed, strategy_index, unit_index, attempt)
    )
    return float(rng.random())


def corrupt_payload(payload: object, rng: np.random.Generator) -> object:
    """Deterministically damage a payload (the ``partial`` strategy).

    Arrays lose a random run of entries to garbage (simulating a
    truncated/bit-flipped shard in transit); other payloads are
    replaced outright.  The damage happens *after* the integrity
    checksum is computed, so the supervisor's validation must catch it.
    """
    if isinstance(payload, np.ndarray) and payload.size:
        damaged = np.array(payload, copy=True)
        flat = damaged.reshape(-1)
        start = int(rng.integers(0, flat.size))
        length = max(1, flat.size // 4)
        flat[start : start + length] = -1e301  # unmistakably garbage
        return damaged
    return None


class FailureInjector:
    """Middleware evaluating a :class:`ChaosSpec` around one execution.

    Stateless and cheap to construct — workers rebuild one per unit
    execution from the spec dict, so no state needs to survive process
    boundaries; determinism lives entirely in the seeded decisions.
    """

    def __init__(self, spec: ChaosSpec) -> None:
        self.spec = spec

    def plan(self, unit_index: int, attempt: int) -> Injection:
        """Decide which strategies fire for this ``(unit, attempt)``."""
        return Injection(
            fired=tuple(
                strategy.kind
                for si, strategy in enumerate(self.spec.strategies)
                if strategy.eligible(attempt)
                and _chaos_uniform(self.spec.seed, si, unit_index, attempt)
                < strategy.probability
            )
        )

    def apply_before(
        self, injection: Injection, unit_index: int, attempt: int, inline: bool
    ) -> None:
        """Fire pre-execution faults: die, or take the pool down.

        ``inline`` marks supervisor-process execution (``workers=1``):
        there a ``broken_pool`` hit degrades to a crash, because
        ``os._exit`` would kill the caller rather than a worker.
        """
        if "broken_pool" in injection.fired and not inline:
            os._exit(13)  # simulate a worker dying mid-unit
        if "crash" in injection.fired or "broken_pool" in injection.fired:
            raise InjectedFailure(
                f"chaos crash injected into unit {unit_index} "
                f"(attempt {attempt})",
                unit_index,
                attempt,
            )

    def apply_after(
        self, injection: Injection, unit_index: int, attempt: int, payload: object
    ) -> Tuple[object, bool]:
        """Fire post-execution faults; returns ``(payload, dropped)``."""
        if "drop" in injection.fired:
            return None, True
        if "partial" in injection.fired:
            rng = np.random.default_rng(
                grid_seed_sequence(self.spec.seed, _PARTIAL_KEY, unit_index, attempt)
            )
            return corrupt_payload(payload, rng), False
        return payload, False


def load_chaos(source: Union[str, Dict[str, object], ChaosSpec, None]) -> Optional[ChaosSpec]:
    """Coerce a chaos source — spec, dict, inline JSON, or file path.

    The CLI's ``--chaos FILE_OR_SPEC`` contract: a string is treated as
    a path when a file exists there, otherwise parsed as inline JSON.
    """
    if source is None or isinstance(source, ChaosSpec):
        return source
    if isinstance(source, dict):
        return ChaosSpec.from_dict(source)
    text = source.strip()
    if not text:
        return None
    path = pathlib.Path(text)
    looks_inline = text.startswith("{") or text.startswith("[")
    if not looks_inline:
        if not path.exists():
            raise ParameterError(
                f"chaos spec file not found: {text!r} (pass a path or "
                "inline JSON like '{\"seed\": 7, \"strategies\": [...]}')"
            )
        return ChaosSpec.from_json(path.read_text())
    return ChaosSpec.from_json(text)


def chaos_from_env() -> Optional[ChaosSpec]:
    """The ambient chaos campaign: ``REPRO_CHAOS`` (path or inline JSON)."""
    return load_chaos(os.environ.get(CHAOS_ENV_VAR))
