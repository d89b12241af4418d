"""The whole-program analysis context handed to ``@project_rule`` checks.

A :class:`ProjectContext` pairs the linked :class:`~repro.analysis.graph.ProjectGraph`
with the per-module :class:`~repro.analysis.checker.ModuleContext` objects
(needed for snippets and positions when phrasing violations) and knows
which functions count as *public entry points* — the roots every
reachability-based rule (SWP014, SWP016) starts from.

Entry-point contract (kept in sync with ``docs/ANALYSIS.md``):

* module-level functions named ``swope_*`` (the paper-facing API);
* public methods (no leading underscore) of ``PlanExecutor``, whose
  ``execute_one`` is the planner dispatch seam (SWP011's target);
* ``repro.cli.main`` (the command-line surface).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.checker import ModuleContext
from repro.analysis.graph import FunctionInfo, ProjectGraph
from repro.analysis.rules import Rule, Violation

__all__ = ["ProjectContext", "entry_point_keys"]

#: Class names whose public methods are externally callable surfaces.
_ENTRY_CLASSES = {"PlanExecutor"}


def entry_point_keys(graph: ProjectGraph) -> list[str]:
    """Function keys of every public entry point, deterministic order."""
    keys: list[str] = []
    for key in sorted(graph.functions):
        info = graph.functions[key]
        if info.cls is None and "<locals>" not in info.qualname:
            if info.name.startswith("swope_"):
                keys.append(key)
            elif info.name == "main" and info.module == "repro.cli":
                keys.append(key)
        elif (
            info.cls in _ENTRY_CLASSES
            and not info.name.startswith("_")
            and "<locals>" not in info.qualname
        ):
            keys.append(key)
    return keys


@dataclass
class ProjectContext:
    """Everything a whole-program rule needs: graph + module contexts."""

    graph: ProjectGraph
    #: Parsed module contexts keyed by dotted module name.
    contexts: dict[str, ModuleContext] = field(default_factory=dict)

    def module_context(self, module: str) -> ModuleContext | None:
        return self.contexts.get(module)

    def entry_points(self) -> list[str]:
        """Public entry-point function keys (see module docstring)."""
        return entry_point_keys(self.graph)

    def violation(
        self,
        rule: Rule,
        info: FunctionInfo,
        lineno: int,
        message: str,
        *,
        column: int = 0,
    ) -> Violation:
        """Build a violation positioned inside ``info``'s module."""
        context = self.contexts[info.module]
        return Violation(
            rule=rule.code,
            path=context.path,
            line=lineno,
            column=column,
            message=message,
            severity=rule.severity,
            snippet=context.source_line(lineno),
        )

    def iter_functions(self) -> Iterator[FunctionInfo]:
        """Every function in the project, deterministic order."""
        for key in sorted(self.graph.functions):
            yield self.graph.functions[key]
