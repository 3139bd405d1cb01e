"""R007: result-altering CLI flags must flow into provenance.

A result nobody can re-derive is not reproducible: every CLI flag that
changes *what* gets computed must leave a trace in the study
provenance (or be part of the scenario payload that the result embeds
wholesale).  This rule is cross-file: it collects every
``add_argument`` in the analyzed tree and every ``provenance[...]``
write, then demands that each flag be classified — mapped to a
provenance key that some module actually writes, declared
scenario-recorded (seed/trials/--set land inside the serialized
scenario itself), or declared operational (cannot alter results).

An *unclassified* flag is a finding: adding a new result-altering
option forces a conscious decision about its provenance story before
the gate goes green.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set, Tuple

from repro.analysis.registry import Finding, ModuleInfo, Rule

__all__ = ["ProvenanceCompleteness"]


class ProvenanceCompleteness(Rule):
    id = "R007"
    name = "provenance-completeness"
    description = (
        "every CLI flag that can alter results must map to a provenance "
        "key some module writes (or be declared scenario-recorded/"
        "operational in R007's flag tables)"
    )
    #: dest -> provenance key that must be written somewhere.
    PROVENANCE_FLAGS = {
        "workers": "workers",
        "target_ci": "adaptive",
        "max_trials": "adaptive",
        "block_trials": "adaptive",
        "chaos": "faults",
        "max_retries": "scheduler",
        "cache": "cache",
    }
    #: Recorded inside the result payload by construction: these
    #: rewrite scenario fields, and ScenarioResult.to_dict embeds the
    #: full scenario (seed, trials, overrides included).
    SCENARIO_FLAGS = frozenset({"seed", "trials", "overrides"})
    #: Cannot alter result values: I/O locations, rendering, service
    #: plumbing, and the linter's own flags.
    OPERATIONAL_FLAGS = frozenset({
        "save", "file", "name", "job",
        "spool", "wait", "timeout", "events", "max_concurrent",
        "max_jobs", "idle_timeout",
        "paths", "select", "ignore", "format", "list_rules", "verbose",
    })

    def finalize(self, modules: List[ModuleInfo]) -> Iterable[Finding]:
        flags: List[Tuple[ModuleInfo, ast.Call, str]] = []
        written: Set[str] = set()
        for module in modules:
            flags.extend(
                (module, call, dest)
                for call, dest in self._iter_flags(module)
            )
            written |= self._provenance_keys(module)

        findings: List[Finding] = []
        for module, call, dest in flags:
            if dest in self.SCENARIO_FLAGS or dest in self.OPERATIONAL_FLAGS:
                continue
            key = self.PROVENANCE_FLAGS.get(dest)
            if key is None:
                findings.append(
                    module.finding(
                        self, call,
                        f"CLI flag (dest `{dest}`) is unclassified: map it "
                        "to a provenance key in R007's PROVENANCE_FLAGS, or "
                        "declare it scenario-recorded/operational",
                    )
                )
            elif key not in written:
                findings.append(
                    module.finding(
                        self, call,
                        f"CLI flag (dest `{dest}`) promises provenance key "
                        f"`{key}`, but no analyzed module writes "
                        f"provenance[{key!r}]",
                    )
                )
        return findings

    @staticmethod
    def _iter_flags(module: ModuleInfo):
        """(call node, dest) for each argparse ``add_argument`` call."""
        for node in ast.walk(module.tree):
            if (
                not isinstance(node, ast.Call)
                or not isinstance(node.func, ast.Attribute)
                or node.func.attr != "add_argument"
            ):
                continue
            dest = None
            for keyword in node.keywords:
                if keyword.arg == "dest" and isinstance(
                    keyword.value, ast.Constant
                ):
                    dest = str(keyword.value.value)
            if dest is None:
                options = [
                    arg.value
                    for arg in node.args
                    if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                ]
                longs = [opt for opt in options if opt.startswith("--")]
                if longs:
                    dest = longs[0].lstrip("-").replace("-", "_")
                elif options and not options[0].startswith("-"):
                    dest = options[0].replace("-", "_")
            if dest is not None:
                yield node, dest

    @staticmethod
    def _provenance_keys(module: ModuleInfo) -> Set[str]:
        """Constant keys written to a ``provenance`` mapping."""
        keys: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                value = node.value
                for target in targets:
                    # provenance["key"] = ...
                    if (
                        isinstance(target, ast.Subscript)
                        and _is_provenance(target.value)
                        and isinstance(target.slice, ast.Constant)
                        and isinstance(target.slice.value, str)
                    ):
                        keys.add(target.slice.value)
                    # provenance = {"key": ..., ...}
                    elif (
                        isinstance(target, ast.Name)
                        and target.id == "provenance"
                        and isinstance(value, ast.Dict)
                    ):
                        keys.update(
                            key.value
                            for key in value.keys
                            if isinstance(key, ast.Constant)
                            and isinstance(key.value, str)
                        )
            elif isinstance(node, ast.Call):
                # provenance.setdefault("key", ...)
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "setdefault"
                    and _is_provenance(node.func.value)
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                ):
                    keys.add(node.args[0].value)
        return keys


def _is_provenance(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "provenance"
    if isinstance(node, ast.Attribute):
        return node.attr == "provenance"
    return False
