"""``repro lint`` — a determinism & contract linter for this repository.

Every reproducibility guarantee this codebase makes — bit-identical
results for any worker count, adaptive == one-shot, chaos convergence,
checksum-verified shard folding — rests on *seed discipline* and
*ordering discipline* that runtime regression tests can only check on
the inputs they happen to exercise.  This package proves those
invariants at the source level, for all code paths, with a small
AST-based analyzer run as one fixed pipeline:

* a **fixed rule catalog** — R000–R008, one tuple in
  :mod:`repro.analysis.rules`, every finding an error;
* an **inline-suppression syntax** — ``# repro: noqa[R001] -- why`` —
  where the justification is *required* (a bare ``noqa`` is itself a
  finding, R000) and which silences findings in its own module only;
* **text/JSON reporters** and CI-friendly exit codes via
  ``repro lint [PATHS] [--select/--ignore/--format]``: 0 clean, 1 any
  finding left, 2 configuration error.

The engine lives in :mod:`repro.analysis.engine`.
"""

from __future__ import annotations

from repro.analysis.engine import LintResult, collect_modules, lint_paths, list_rules
from repro.analysis.registry import Finding, ModuleInfo, Rule
from repro.analysis.reporters import render_json, render_text
from repro.analysis.rules import RULES

__all__ = [
    "Finding",
    "LintResult",
    "ModuleInfo",
    "RULES",
    "Rule",
    "collect_modules",
    "lint_paths",
    "list_rules",
    "render_json",
    "render_text",
]
