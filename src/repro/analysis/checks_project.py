"""Whole-program rules SWP013, SWP014 and SWP016 (require ``--project``).

These checks consume the linked :class:`~repro.analysis.graph.ProjectGraph`
via a :class:`~repro.analysis.project.ProjectContext` and enforce the
cross-module invariants the per-module rules cannot see:

* **SWP013** — determinism taint: wall-clock/entropy/ordering
  nondeterminism must not flow into trace events, checkpoint envelopes,
  or result fingerprints (the substrate of golden-trace bit-identity).
* **SWP014** — budget reachability: every adaptive loop reachable from
  a public entry point must observe its budget (cross-module SWP003).
* **SWP016** — exception contract: the transitive raise-set of every
  public entry point stays inside the ``repro.exceptions`` taxonomy.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.checks import _BUILTIN_EXCEPTIONS
from repro.analysis.flow import TaintLabel
from repro.analysis.graph import FunctionInfo, ProjectGraph, Resolved
from repro.analysis.project import ProjectContext
from repro.analysis.rules import RULES, Violation, project_rule

__all__: list[str] = []


# ----------------------------------------------------------------------
# SWP013 — determinism taint must not reach events/checkpoints/fingerprints
# ----------------------------------------------------------------------
#: Function sinks: hashing a result for golden-trace comparison.
_FINGERPRINT_SINKS = {"result_fingerprint", "plan_fingerprint"}

#: Modules whose ``*Event`` classes are trace-payload sinks.
_EVENT_MODULE = "repro.obs.events"

#: The durable checkpoint envelope.
_CHECKPOINT_MODULE = "repro.durability.checkpoint"
_CHECKPOINT_CLASS = "PlanCheckpoint"


def _sink_description(
    graph: ProjectGraph, chain: tuple[str, ...], info: FunctionInfo
) -> str | None:
    """Non-``None`` when the called chain is a determinism sink."""
    resolved = graph.resolve_chain(chain, info)
    name = chain[-1]
    if resolved is not None:
        if resolved.kind == "class":
            if resolved.module == _EVENT_MODULE and resolved.qualname.endswith(
                "Event"
            ):
                return f"trace event {resolved.qualname} payload"
            if (
                resolved.module == _CHECKPOINT_MODULE
                and resolved.qualname == _CHECKPOINT_CLASS
            ):
                return "checkpoint envelope PlanCheckpoint"
            return None
        if resolved.kind == "function" and resolved.qualname in _FINGERPRINT_SINKS:
            return f"{resolved.qualname}() input"
        return None
    # Name-based fallback for chains the resolver cannot follow (e.g. a
    # sink class held in a local): better a reviewable finding than a
    # silent miss.
    if name.endswith("Event") and name[:1].isupper():
        return f"trace event {name} payload"
    if name == _CHECKPOINT_CLASS:
        return "checkpoint envelope PlanCheckpoint"
    if name in _FINGERPRINT_SINKS:
        return f"{name}() input"
    return None


def _interprocedural_return_taint(
    graph: ProjectGraph,
) -> dict[str, set[TaintLabel]]:
    """Fixpoint of per-function return taint across resolved call chains."""
    taint: dict[str, set[TaintLabel]] = {
        key: set(info.flow.return_labels)
        for key, info in graph.functions.items()
    }
    resolved_via: dict[str, list[str]] = {}
    for key, info in graph.functions.items():
        callees: list[str] = []
        for chain in info.flow.return_via:
            resolved = graph.resolve_callable(chain, info)
            if resolved is not None and resolved.kind == "function":
                callees.append(resolved.key)
        resolved_via[key] = callees
    changed = True
    while changed:
        changed = False
        for key, callees in resolved_via.items():
            for callee in callees:
                extra = taint.get(callee, set()) - taint[key]
                if extra:
                    taint[key] |= extra
                    changed = True
    return taint


@project_rule(
    "SWP013",
    "determinism-taint",
    summary="nondeterministic values must not reach trace events, checkpoints,"
    " or result fingerprints",
)
def _check_determinism_taint(ctx: ProjectContext) -> Iterator[Violation]:
    """Taint from wall clocks / OS entropy / iteration order must not sink.

    Sources are detected intra-procedurally (:mod:`repro.analysis.flow`)
    and propagated across function returns by a whole-program fixpoint;
    any call whose tainted arguments reach an event constructor, the
    ``PlanCheckpoint`` envelope, or a fingerprint function fires. The
    ``RunStats`` timing fields are *not* sinks — wall time belongs in
    the metrics layer, not the determinism-critical stream.
    """
    this = RULES["SWP013"]
    graph = ctx.graph
    return_taint = _interprocedural_return_taint(graph)
    for info in ctx.iter_functions():
        for call in info.flow.tainted_calls:
            sink = _sink_description(graph, call.chain, info)
            if sink is None:
                continue
            labels: set[TaintLabel] = set(call.labels)
            for via in call.via:
                resolved = graph.resolve_callable(via, info)
                if resolved is not None and resolved.kind == "function":
                    labels |= return_taint.get(resolved.key, set())
            if not labels:
                continue
            sources = ", ".join(
                sorted({label.source for label in labels})
            )
            yield ctx.violation(
                this,
                info,
                call.lineno,
                f"nondeterministic value ({sources}) flows into {sink};"
                " same-seed runs would diverge — derive the field"
                " deterministically or route it to the metrics layer",
                column=call.col,
            )


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
