"""R006: typed exceptions only on supervised execution paths.

The fault-tolerant scheduler and the study/service/CLI boundaries
all classify failures by exception type (retryable unit
failures, shard mismatches, parameter errors rendered without a
traceback).  A bare ``raise ValueError`` in ``keygraphs/``,
``simulation/``, ``study/`` or ``service/`` bypasses that
classification: it crosses process
boundaries as an anonymous failure the supervisor can only treat as a
crash.  Raise the typed hierarchy from :mod:`repro.exceptions` instead.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.analysis.astutil import ImportMap, attr_chain
from repro.analysis.registry import Finding, ModuleInfo, Rule

__all__ = ["TypedExceptions"]


class TypedExceptions(Rule):
    id = "R006"
    name = "typed-exceptions"
    description = (
        "supervised paths (keygraphs/, simulation/, study/, service/) "
        "raise only "
        "typed exceptions from repro.exceptions, never bare "
        "Exception/ValueError"
    )
    PACKAGES = ("keygraphs", "simulation", "study", "service")
    BANNED = frozenset({
        "Exception",
        "BaseException",
        "ValueError",
        "RuntimeError",
        "KeyError",
        "IndexError",
        "ArithmeticError",
        "OSError",
    })

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        if not module.in_packages(self.PACKAGES):
            return []
        findings: List[Finding] = []
        imports = ImportMap(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            name = attr_chain(exc)
            if name is None:
                continue
            resolved = imports.resolve(exc) or name
            # `raise exc` re-raises a caught variable: out of scope.
            if name in self.BANNED and resolved in self.BANNED:
                findings.append(
                    module.finding(
                        self, node,
                        f"bare `raise {name}` on a supervised path; raise "
                        "a typed exception from repro.exceptions so the "
                        "scheduler/CLI can classify the failure",
                    )
                )
        return findings
