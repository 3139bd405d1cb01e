"""Structural rules: R004 array-first kernel seam, R005 import hygiene.

R004 keeps the kernels array-first: nothing under ``kernels/`` may
import ``repro.graphs.graph`` (the Python object-graph layer) or take
or return a ``Graph``-typed value, so only numpy arrays cross the
kernel contracts.

R005 keeps worker-reachable modules import-clean: the warm pool's
worker processes import these modules under spawn, so
import-time environment reads or global-state mutation would snapshot
coordinator state at the wrong moment and diverge between hosts.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.analysis.astutil import (
    ImportMap,
    call_name,
    iter_import_time_nodes,
)
from repro.analysis.registry import Finding, ModuleInfo, Rule, register_rule

__all__ = ["KernelSeam", "WorkerImportHygiene"]


@register_rule
class KernelSeam(Rule):
    id = "R004"
    name = "kernel-seam"
    severity = "error"
    description = (
        "kernels/ is array-first: no repro.graphs.graph imports and no "
        "Graph-typed signatures"
    )
    default_config = {
        "packages": ["kernels"],
        "banned_imports": ["repro.graphs.graph"],
        "banned_types": ["Graph"],
    }

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        if not module.in_packages(self.config["packages"]):
            return []
        return [*self._check_imports(module), *self._check_annotations(module)]

    def _check_imports(self, module: ModuleInfo) -> Iterable[Finding]:
        banned = tuple(self.config["banned_imports"])
        for node in ast.walk(module.tree):
            targets: List[str] = []
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                targets = [node.module] + [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
            for target in targets:
                if any(
                    target == name or target.startswith(name + ".")
                    for name in banned
                ):
                    yield module.finding(
                        self, node,
                        f"kernels/ must stay array-first: import of "
                        f"`{target}` pulls the Graph object layer across "
                        "the seam",
                    )
                    break

    def _check_annotations(self, module: ModuleInfo) -> Iterable[Finding]:
        banned = set(self.config["banned_types"])
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            annotations = [a.annotation for a in node.args.args + node.args.kwonlyargs]
            annotations.append(node.returns)
            for annotation in annotations:
                if annotation is None:
                    continue
                if self._mentions(annotation, banned):
                    yield module.finding(
                        self, node,
                        f"`{node.name}` accepts/returns a Graph object; "
                        "kernel contracts take arrays only",
                    )
                    break

    @staticmethod
    def _mentions(annotation: ast.AST, banned: set) -> bool:
        # Annotations may be strings (postponed evaluation) or nodes.
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            return any(name in annotation.value for name in banned)
        for node in ast.walk(annotation):
            if isinstance(node, ast.Name) and node.id in banned:
                return True
            if isinstance(node, ast.Attribute) and node.attr in banned:
                return True
        return False


@register_rule
class WorkerImportHygiene(Rule):
    id = "R005"
    name = "worker-import-hygiene"
    severity = "error"
    description = (
        "worker-reachable modules must not read env vars or mutate "
        "global state at import time (outside the sanctioned seam)"
    )
    default_config = {
        # Everything a spawn-started worker imports transitively.
        "packages": [
            "kernels", "simulation", "study", "service", "graphs",
            "keygraphs", "channels", "core", "probability", "utils", "wsn",
        ],
        # The sanctioned configuration seam: ambient env resolution is
        # these modules' explicit, function-scoped job.  (They are still
        # checked — only *their* import-time reads would be flagged.)
        "allowed_modules": [],
        "env_reads": ["os.getenv", "os.environ.get", "os.environ.setdefault"],
        "mutating_calls": [
            "os.putenv",
            "numpy.seterr",
            "numpy.random.seed",
            "warnings.filterwarnings",
            "warnings.simplefilter",
            "logging.basicConfig",
            "multiprocessing.set_start_method",
            "sys.setrecursionlimit",
        ],
    }

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        if not module.in_packages(self.config["packages"]):
            return []
        if module.matches(self.config["allowed_modules"]):
            return []
        findings: List[Finding] = []
        imports = ImportMap(module.tree)
        env_reads = list(self.config["env_reads"])
        mutating = list(self.config["mutating_calls"])
        for node in iter_import_time_nodes(module.tree):
            if isinstance(node, ast.Call):
                name = call_name(imports, node)
                if name in env_reads:
                    findings.append(
                        module.finding(
                            self, node,
                            f"import-time `{name}` snapshots the "
                            "environment when the worker imports, not "
                            "when work is scheduled; read it inside a "
                            "function",
                        )
                    )
                elif name in mutating:
                    findings.append(
                        module.finding(
                            self, node,
                            f"import-time `{name}` mutates process-global "
                            "state in every worker; apply it in an "
                            "explicit setup path",
                        )
                    )
            elif isinstance(node, ast.Subscript):
                chain = imports.resolve(node.value)
                if chain == "os.environ":
                    findings.append(
                        module.finding(
                            self, node,
                            "import-time os.environ access; environment "
                            "handling belongs in function scope on the "
                            "sanctioned config seam",
                        )
                    )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if not isinstance(target, ast.Attribute):
                        continue
                    owner = imports.resolve(target.value)
                    if owner is not None and owner in imports.aliases.values():
                        findings.append(
                            module.finding(
                                self, node,
                                f"import-time assignment to "
                                f"`{owner}.{target.attr}` mutates another "
                                "module's global state",
                            )
                        )
        return findings
