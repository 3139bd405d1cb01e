"""The lint engine: file collection, rule dispatch, suppression.

:func:`lint_paths` is the one entry point; ``repro lint`` and the test
suite both call it.  The pipeline:

1. collect ``*.py`` files under the given paths (stable sorted order);
   paths that yield none are a configuration error;
2. parse each into a :class:`~repro.analysis.registry.ModuleInfo`
   (syntax errors become ``R999`` findings rather than crashes);
3. run every rule in :data:`~repro.analysis.rules.RULES` (or the
   ``--select``ed ones): ``check_module`` per module, then
   ``finalize`` over the whole module list;
4. set aside findings suppressed by a *justified* inline
   ``# repro: noqa[RULE] -- why`` on the finding's line in its own
   module (R000 polices unjustified ones).

Exit-code contract (``LintResult.exit_code``): 0 = no finding left
after suppression, 1 = at least one.  Configuration mistakes raise
:class:`~repro.exceptions.AnalysisError`, which the CLI maps to exit
code 2.
"""

from __future__ import annotations

import dataclasses
import pathlib
from collections import Counter
from typing import Iterable, List, Optional, Sequence, Set, Tuple, Type, Union

from repro.analysis.registry import Finding, ModuleInfo, Rule
from repro.analysis.rules import RULES
from repro.exceptions import AnalysisError

__all__ = ["LintResult", "collect_modules", "lint_paths", "list_rules"]

#: Rule id reserved for files the analyzer cannot parse.
PARSE_ERROR_RULE = "R999"


@dataclasses.dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding]  #: active (reported, gate-relevant)
    suppressed: List[Finding]  #: silenced by justified inline noqa
    files: int
    rules: List[str]  #: ids that ran

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def summary(self) -> str:
        return (
            f"{len(self.findings)} finding(s) "
            f"({len(self.suppressed)} suppressed) "
            f"across {self.files} file(s), rules: {', '.join(self.rules)}"
        )


def _iter_python_files(paths: Sequence[Union[str, pathlib.Path]]):
    for raw in paths:
        root = pathlib.Path(raw)
        if root.is_file():
            if root.suffix == ".py":
                yield root, root.parent
        elif root.is_dir():
            for path in sorted(root.rglob("*.py")):
                yield path, root
        else:
            raise AnalysisError(f"no such file or directory: {root}")


def _relative_key(path: pathlib.Path, root: pathlib.Path) -> str:
    """Stable reporting key for *path*.

    Files inside a ``repro`` package report as ``repro/...`` regardless
    of how the linter was invoked (``src``, ``src/repro``, an absolute
    path); anything else reports relative to its scan root, so fixture
    trees keep their package-shaped layout (``kernels/bad.py``).
    """
    parts = path.parts
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        return "/".join(parts[index:])
    try:
        rel = path.relative_to(root)
    except ValueError:  # pragma: no cover - _iter_python_files pairs them
        rel = path
    return rel.as_posix()


def collect_modules(
    paths: Sequence[Union[str, pathlib.Path]],
) -> Tuple[List[ModuleInfo], List[Finding]]:
    """Parse every python file under *paths*; unparseable files become
    ``R999`` findings instead of aborting the run.

    Files whose :func:`_relative_key` would collide (``repro lint b a``
    over two trees that both hold ``x.py``) report under the path as
    given (``b/x.py``, ``a/x.py``) instead, so every location names one
    file; rules still scope them by the relative key.
    """
    files = []
    seen = set()
    for path, root in _iter_python_files(paths):
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            files.append((path, _relative_key(path, root)))
    counts = Counter(key for _, key in files)
    modules: List[ModuleInfo] = []
    errors: List[Finding] = []
    for path, key in files:
        rel = path.as_posix() if counts[key] > 1 else key
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            errors.append(
                Finding(
                    rule=PARSE_ERROR_RULE, path=rel, line=1, col=0,
                    message=f"cannot read file: {exc}",
                )
            )
            continue
        try:
            modules.append(ModuleInfo(path=path, rel=rel, source=source, scope=key))
        except SyntaxError as exc:
            errors.append(
                Finding(
                    rule=PARSE_ERROR_RULE,
                    path=rel,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    message=f"syntax error: {exc.msg}",
                )
            )
    return modules, errors


def list_rules() -> List[Type[Rule]]:
    """Every rule class, ordered by id."""
    return list(RULES)


def _rule_ids(raw: Iterable[str]) -> Set[str]:
    known = {cls.id for cls in RULES}
    ids = {rule_id.upper() for rule_id in raw}
    unknown = sorted(ids - known)
    if unknown:
        raise AnalysisError(
            f"unknown rule(s) {', '.join(unknown)}; known: {', '.join(sorted(known))}"
        )
    return ids


def lint_paths(
    paths: Sequence[Union[str, pathlib.Path]],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> LintResult:
    """Run the linter; see the module docstring for the pipeline."""
    selected = _rule_ids(select) if select else {cls.id for cls in RULES}
    # Typos in --ignore are config errors too, not silent no-ops.
    selected -= _rule_ids(ignore or ())
    rules = [cls() for cls in RULES if cls.id in selected]
    modules, parse_errors = collect_modules(paths)
    if not modules and not parse_errors:
        raise AnalysisError(
            f"no python files under {', '.join(str(p) for p in paths)}"
        )

    findings: List[Finding] = list(parse_errors)
    for rule in rules:
        for module in modules:
            findings.extend(rule.check_module(module))
        findings.extend(rule.finalize(modules))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    return LintResult(
        findings=[f for f in findings if not f.suppressed],
        suppressed=[f for f in findings if f.suppressed],
        files=len(modules),
        rules=[rule.id for rule in rules],
    )
