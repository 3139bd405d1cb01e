"""R000: suppression hygiene.

The inline escape hatch (``# repro: noqa[R001] -- why``) requires both
an explicit rule list and a justification.  A bare or malformed
``repro: noqa`` suppresses nothing *and* is itself a finding, so the
ledger of intentional exceptions stays auditable.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.analysis.registry import Finding, ModuleInfo, Rule

__all__ = ["SuppressionHygiene"]


class SuppressionHygiene(Rule):
    id = "R000"
    name = "suppression-hygiene"
    description = (
        "every `# repro: noqa[RULE]` must name rules and carry a "
        "`-- justification`"
    )

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        findings: List[Finding] = []
        for note in module.suppressions.values():
            if note.valid:
                continue
            if not note.rules and not note.justification:
                detail = "names no rules and has no justification"
            elif not note.rules:
                detail = "names no rules (use `# repro: noqa[R001] -- why`)"
            else:
                detail = "has no `-- justification`"
            findings.append(
                Finding(
                    rule=self.id,
                    path=module.rel,
                    line=note.line,
                    col=0,
                    message=f"suppression {detail}; it suppresses nothing",
                    snippet=module.line_text(note.line),
                )
            )
        return findings
