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
from repro.analysis.registry import Finding, ModuleInfo, Rule

__all__ = ["KernelSeam", "WorkerImportHygiene"]


class KernelSeam(Rule):
    id = "R004"
    name = "kernel-seam"
    description = (
        "kernels/ is array-first: no repro.graphs.graph imports and no "
        "Graph-typed signatures"
    )
    PACKAGES = ("kernels",)
    BANNED_IMPORTS = ("repro.graphs.graph",)
    BANNED_TYPES = frozenset({"Graph"})

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        if not module.in_packages(self.PACKAGES):
            return []
        return [*self._check_imports(module), *self._check_annotations(module)]

    def _check_imports(self, module: ModuleInfo) -> Iterable[Finding]:
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
                    for name in self.BANNED_IMPORTS
                ):
                    yield module.finding(
                        self, node,
                        f"kernels/ must stay array-first: import of "
                        f"`{target}` pulls the Graph object layer across "
                        "the seam",
                    )
                    break

    def _check_annotations(self, module: ModuleInfo) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            annotations = [a.annotation for a in node.args.args + node.args.kwonlyargs]
            annotations.append(node.returns)
            for annotation in annotations:
                if annotation is None:
                    continue
                if self._mentions(annotation, self.BANNED_TYPES):
                    yield module.finding(
                        self, node,
                        f"`{node.name}` accepts/returns a Graph object; "
                        "kernel contracts take arrays only",
                    )
                    break

    @staticmethod
    def _mentions(annotation: ast.AST, banned: frozenset) -> bool:
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


class WorkerImportHygiene(Rule):
    id = "R005"
    name = "worker-import-hygiene"
    description = (
        "worker-reachable modules must not read env vars or mutate "
        "global state at import time (outside the sanctioned seam)"
    )
    #: Everything a spawn-started worker imports transitively.
    PACKAGES = (
        "kernels", "simulation", "study", "service", "graphs",
        "keygraphs", "channels", "core", "probability", "utils", "wsn",
    )
    ENV_READS = ("os.getenv", "os.environ.get", "os.environ.setdefault")
    MUTATING_CALLS = (
        "os.putenv",
        "numpy.seterr",
        "numpy.random.seed",
        "warnings.filterwarnings",
        "warnings.simplefilter",
        "logging.basicConfig",
        "multiprocessing.set_start_method",
        "sys.setrecursionlimit",
    )

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        if not module.in_packages(self.PACKAGES):
            return []
        findings: List[Finding] = []
        imports = ImportMap(module.tree)
        for node in iter_import_time_nodes(module.tree):
            if isinstance(node, ast.Call):
                name = call_name(imports, node)
                if name in self.ENV_READS:
                    findings.append(
                        module.finding(
                            self, node,
                            f"import-time `{name}` snapshots the "
                            "environment when the worker imports, not "
                            "when work is scheduled; read it inside a "
                            "function",
                        )
                    )
                elif name in self.MUTATING_CALLS:
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
