"""Whole-program rules SWP014 and SWP016 (require ``--project``).

These checks consume the linked :class:`~repro.analysis.graph.ProjectGraph`
via a :class:`~repro.analysis.project.ProjectContext` and enforce the
cross-module invariants the per-module rules cannot see:

* **SWP014** — budget reachability: every adaptive loop reachable from
  a public entry point must observe its budget (cross-module SWP003).
* **SWP016** — exception contract: the transitive raise-set of every
  public entry point stays inside the ``repro.exceptions`` taxonomy.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.checks import _BUILTIN_EXCEPTIONS
from repro.analysis.graph import ProjectGraph, Resolved
from repro.analysis.project import ProjectContext
from repro.analysis.rules import RULES, Violation, project_rule

__all__: list[str] = []


# ----------------------------------------------------------------------
# SWP014 — adaptive loops reachable from entry points observe the budget
# ----------------------------------------------------------------------
@project_rule(
    "SWP014",
    "budget-reachability",
    summary="adaptive loops reachable from public entry points must check"
    " the budget (cross-module SWP003)",
)
def _check_budget_reachability(ctx: ProjectContext) -> Iterator[Violation]:
    """Cross-module generalisation of SWP003.

    SWP003 scopes to ``repro.core.engine`` + ``repro.baselines`` by
    module name; this rule instead asks *which code actually runs under
    a user query* — every function transitively reachable from a public
    entry point — and requires each data-sized loop there to call an
    interruption checkpoint. New query surfaces are covered the moment
    they become reachable, without editing any scope list.
    """
    this = RULES["SWP014"]
    origin = ctx.graph.reachable(ctx.entry_points())
    for key in sorted(origin):
        info = ctx.graph.functions[key]
        root = ctx.graph.functions[origin[key]]
        for loop in info.loops:
            if loop.adaptive and not loop.checked:
                yield ctx.violation(
                    this,
                    info,
                    loop.lineno,
                    f"adaptive {loop.kind}-loop in {info.qualname} is"
                    f" reachable from entry point {root.qualname} but never"
                    " checks its QueryBudget/CancellationToken",
                )


# ----------------------------------------------------------------------
# SWP016 — transitive raise-set stays inside the repro.exceptions taxonomy
# ----------------------------------------------------------------------
#: Control-flow / abstract-seam builtins an entry point may legitimately
#: raise without wrapping (mirrors the SWP007 exemptions).
_ALLOWED_BUILTINS = {
    "NotImplementedError",
    "StopIteration",
    "StopAsyncIteration",
    "KeyboardInterrupt",
    "SystemExit",
    "GeneratorExit",
}

_EXCEPTIONS_MODULE = "repro.exceptions"


def _in_taxonomy(
    graph: ProjectGraph, resolved: Resolved, _depth: int = 0
) -> bool:
    """Is the class defined in — or derived from — ``repro.exceptions``?"""
    if resolved.module == _EXCEPTIONS_MODULE:
        return True
    if _depth > 10:
        return False
    summary = graph.modules.get(resolved.module)
    if summary is None:
        return False
    cls = summary.classes.get(resolved.qualname)
    if cls is None:
        return False
    for base in cls.bases:
        base_resolved = graph._resolve_in_module(summary, base)
        if (
            base_resolved is not None
            and base_resolved.kind == "class"
            and _in_taxonomy(graph, base_resolved, _depth + 1)
        ):
            return True
    return False


@project_rule(
    "SWP016",
    "exception-contract",
    summary="entry points may only (transitively) raise the documented"
    " repro.exceptions taxonomy",
)
def _check_exception_contract(ctx: ProjectContext) -> Iterator[Violation]:
    """The API's catchability promise, enforced transitively.

    Callers are told ``except ReproError`` catches every intentional
    failure. For each public entry point we take the BFS closure over
    the call graph and check every ``raise`` site in it: the exception
    class must resolve into ``repro.exceptions`` (directly or through
    its base chain). Raising a builtin is a contract break even in a
    module SWP007 does not scope to, *if* that code runs under an entry
    point. Unresolvable raise expressions (dynamic classes, re-raised
    locals) are skipped — a documented under-approximation.
    """
    this = RULES["SWP016"]
    graph = ctx.graph
    origin = graph.reachable(ctx.entry_points())
    for key in sorted(origin):
        info = graph.functions[key]
        root = graph.functions[origin[key]]
        for site in info.raises:
            name = site.chain[-1]
            if name in _ALLOWED_BUILTINS:
                continue
            resolved = graph.resolve_chain(site.chain, info)
            if resolved is not None and resolved.kind == "class":
                if _in_taxonomy(graph, resolved):
                    continue
                yield ctx.violation(
                    this,
                    info,
                    site.lineno,
                    f"raise {name} in {info.qualname} (reachable from entry"
                    f" point {root.qualname}) is outside the repro.exceptions"
                    " taxonomy; derive it from ReproError",
                )
            elif resolved is None and name in _BUILTIN_EXCEPTIONS:
                yield ctx.violation(
                    this,
                    info,
                    site.lineno,
                    f"raise {name} in {info.qualname} (reachable from entry"
                    f" point {root.qualname}) breaks the 'except ReproError'"
                    " contract; wrap it in a repro.exceptions class",
                )
