"""Text and JSON reporters for lint results."""

from __future__ import annotations

import json
from typing import Dict, List

from repro.analysis.engine import LintResult, list_rules

__all__ = ["render_text", "render_json", "render_rule_listing"]

REPORT_FORMAT = "repro-lint-report/v2"


def render_text(result: LintResult, verbose: bool = False) -> str:
    """Human-readable report: one ``path:line:col RULE message`` per
    finding, then the summary line."""
    lines: List[str] = [finding.render() for finding in result.findings]
    if verbose:
        lines.extend(
            f"{finding.render()}  [suppressed]" for finding in result.suppressed
        )
    lines.append(result.summary())
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Machine-readable report for the CI gate."""
    document: Dict[str, object] = {
        "format": REPORT_FORMAT,
        "findings": [finding.to_dict() for finding in result.findings],
        "suppressed": [finding.to_dict() for finding in result.suppressed],
        "summary": {
            "files": result.files,
            "rules": result.rules,
            "active": len(result.findings),
            "suppressed": len(result.suppressed),
            "exit_code": result.exit_code,
        },
    }
    return json.dumps(document, indent=2, sort_keys=True)


def render_rule_listing() -> str:
    """``repro lint --list-rules`` output."""
    return "\n".join(
        f"{cls.id}  {cls.name:28} {cls.description}" for cls in list_rules()
    )
