"""Rule plugin registry and the data model shared by all lint rules.

A *rule* is a class with an ``id`` (``"R001"``), a ``name``, a default
``severity``, a ``default_config`` dict, and two hooks:

* :meth:`Rule.check_module` — called once per analyzed module with a
  parsed :class:`ModuleInfo`; yields :class:`Finding`s.
* :meth:`Rule.finalize` — called once after every module has been
  visited, with the whole :class:`Project`; cross-file rules (R007's
  provenance completeness) report here.

Rules self-register via the :func:`register_rule` decorator, so adding
a rule is one class in :mod:`repro.analysis.rules` (or any imported
module — external packages can register their own).
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import re
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Type

from repro.exceptions import AnalysisError

__all__ = [
    "Finding",
    "ModuleInfo",
    "Project",
    "Rule",
    "Suppression",
    "get_rule",
    "list_rules",
    "register_rule",
]

SEVERITIES = ("error", "warning")

#: ``# repro: noqa[R001,R002] -- justification`` (justification required).
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa"
    r"(?:\[(?P<rules>[A-Za-z0-9_,\s]*)\])?"
    r"(?:\s*--\s*(?P<why>.*\S))?"
)


@dataclasses.dataclass(frozen=True)
class Finding:
    """One lint finding, anchored to a source line."""

    rule: str
    path: str  #: stable package-relative posix path (baseline key)
    line: int  #: 1-indexed
    col: int  #: 0-indexed
    message: str
    severity: str = "error"
    snippet: str = ""  #: stripped source line (baseline content hash input)

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1} {self.rule} {self.message}"


@dataclasses.dataclass(frozen=True)
class Suppression:
    """An inline ``# repro: noqa[...]`` annotation on one line."""

    line: int
    rules: Tuple[str, ...]  #: empty tuple = malformed (nothing suppressed)
    justification: str

    @property
    def valid(self) -> bool:
        return bool(self.rules) and bool(self.justification)


class ModuleInfo:
    """One parsed source module plus the metadata rules need."""

    def __init__(self, path: pathlib.Path, rel: str, source: str) -> None:
        self.path = path
        #: Package-relative posix path: ``repro/study/metrics.py`` for
        #: tree files, scan-root-relative for fixture trees.  This is
        #: the reporting + baseline key, so findings are stable across
        #: invocation directories.
        self.rel = rel
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.tree: ast.Module = ast.parse(source)
        self.suppressions: Dict[int, Suppression] = _scan_suppressions(source)
        #: Path components after the (last) ``repro`` package dir, or
        #: all of ``rel`` when there is none — the scope vocabulary
        #: (``kernels``, ``study``, ...) rules match against.
        parts = rel.split("/")
        if "repro" in parts:
            parts = parts[len(parts) - 1 - parts[::-1].index("repro") + 1 :]
        self.subparts: Tuple[str, ...] = tuple(parts)

    def in_packages(self, packages: Iterable[str]) -> bool:
        """Whether this module lives under any of *packages* (dir names)."""
        dirs = set(self.subparts[:-1])
        return any(pkg in dirs for pkg in packages)

    def matches(self, module_paths: Iterable[str]) -> bool:
        """Whether ``rel`` ends with any of the given module paths."""
        return any(self.rel.endswith(suffix) for suffix in module_paths)

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(
        self,
        rule: "Rule",
        node: ast.AST,
        message: str,
        severity: Optional[str] = None,
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=rule.id,
            path=self.rel,
            line=line,
            col=col,
            message=message,
            severity=severity or rule.severity,
            snippet=self.line_text(line),
        )


class Project:
    """The full analyzed module set, for cross-file ``finalize`` hooks."""

    def __init__(self, modules: List[ModuleInfo]) -> None:
        self.modules = modules

    def __iter__(self) -> Iterator[ModuleInfo]:
        return iter(self.modules)


class Rule:
    """Base class for lint rules; subclass and :func:`register_rule`."""

    id: str = ""
    name: str = ""
    severity: str = "error"
    description: str = ""
    #: Per-rule configuration; the engine deep-copies and overlays
    #: user-supplied overrides before a run.
    default_config: Dict[str, object] = {}

    def __init__(self, config: Optional[Dict[str, object]] = None) -> None:
        merged = dict(self.default_config)
        if config:
            merged.update(config)
        self.config = merged

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        return ()

    def finalize(self, project: Project) -> Iterable[Finding]:
        return ()


_RULES: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding *cls* to the rule registry.

    Re-registering an id replaces the previous rule (tests and external
    plugins use this to inject instrumented variants).
    """
    if not cls.id or not re.fullmatch(r"[A-Z][A-Z0-9_]*\d", cls.id):
        raise AnalysisError(
            f"rule id must look like 'R001', got {cls.id!r} on {cls.__name__}"
        )
    if cls.severity not in SEVERITIES:
        raise AnalysisError(
            f"rule {cls.id} severity must be one of {SEVERITIES}, got {cls.severity!r}"
        )
    _RULES[cls.id] = cls
    return cls


def get_rule(rule_id: str) -> Type[Rule]:
    try:
        return _RULES[rule_id]
    except KeyError:
        raise AnalysisError(
            f"unknown rule {rule_id!r}; registered: {', '.join(sorted(_RULES))}"
        )


def list_rules() -> List[Type[Rule]]:
    """Registered rule classes, ordered by id."""
    return [_RULES[rule_id] for rule_id in sorted(_RULES)]


def _scan_suppressions(source: str) -> Dict[int, Suppression]:
    """Suppressions from actual COMMENT tokens (never docstrings/strings
    that merely *mention* the syntax)."""
    import io
    import tokenize

    out: Dict[int, Suppression] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return out  # the parser reports the syntax error as R999
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _NOQA_RE.search(token.string)
        if match is None:
            continue
        raw = match.group("rules") or ""
        rules = tuple(
            part.strip().upper() for part in raw.split(",") if part.strip()
        )
        why = (match.group("why") or "").strip()
        line = token.start[0]
        out[line] = Suppression(line=line, rules=rules, justification=why)
    return out
