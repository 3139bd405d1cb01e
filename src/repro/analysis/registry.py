"""The data model shared by all lint rules.

A *rule* is a class with an ``id`` (``"R001"``), a ``name``, a
``description`` and two hooks:

* :meth:`Rule.check_module` — called once per analyzed module with a
  parsed :class:`ModuleInfo`; yields :class:`Finding`s.
* :meth:`Rule.finalize` — called once after every module has been
  visited, with the whole module list; cross-file rules (R007's
  provenance completeness) report here.

The built-in rules are listed, in id order, in
:data:`repro.analysis.rules.RULES`; that tuple is the whole catalog.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import re
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["Finding", "ModuleInfo", "Rule", "Suppression"]

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
    path: str  #: stable package-relative posix path (reporting key)
    line: int  #: 1-indexed
    col: int  #: 0-indexed
    message: str
    snippet: str = ""  #: stripped source line
    #: Silenced by a justified ``noqa`` in the finding's own module.
    suppressed: bool = dataclasses.field(default=False, compare=False)

    def to_dict(self) -> Dict[str, object]:
        data = dataclasses.asdict(self)
        del data["suppressed"]  # the report lists suppressed findings apart
        return data

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

    def __init__(
        self, path: pathlib.Path, rel: str, source: str, scope: Optional[str] = None
    ) -> None:
        self.path = path
        #: Package-relative posix path: ``repro/study/metrics.py`` for
        #: tree files, scan-root-relative for fixture trees (the path as
        #: given when two scanned files share that key).  This is the
        #: reporting key, so findings are stable across invocation
        #: directories.
        self.rel = rel
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.tree: ast.Module = ast.parse(source)
        self.suppressions: Dict[int, Suppression] = _scan_suppressions(source)
        #: Path components after the (last) ``repro`` package dir of
        #: *scope* (default ``rel``), or all of it when there is none —
        #: the scope vocabulary (``kernels``, ``study``, ...) rules
        #: match against.
        parts = (scope or rel).split("/")
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

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        """A finding of *rule* at *node*, checked against this module's
        own inline suppressions (never another module's with the same
        ``rel``)."""
        line = getattr(node, "lineno", 1)
        note = self.suppressions.get(line)
        return Finding(
            rule=rule.id,
            path=self.rel,
            line=line,
            col=getattr(node, "col_offset", 0),
            message=message,
            snippet=self.line_text(line),
            suppressed=note is not None
            and note.valid
            and (rule.id in note.rules or "ALL" in note.rules),
        )


class Rule:
    """Base class for lint rules; add subclasses to ``rules.RULES``."""

    id: str = ""
    name: str = ""
    description: str = ""

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        return ()

    def finalize(self, modules: List[ModuleInfo]) -> Iterable[Finding]:
        return ()


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
