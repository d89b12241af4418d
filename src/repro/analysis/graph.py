"""Project-wide import graph + call graph for whole-program rules.

Per-module rules see one AST at a time; the cross-module invariants
(SWP014, SWP016) need to know *who calls whom* across ``src/repro``.
This module extracts a compact summary of every module — name
bindings, classes, and per-function facts (calls, loops, raises) — and
links the summaries into a :class:`ProjectGraph` with name resolution
and reachability queries.

Design constraints:

* **Stdlib only** (``ast``), like the rest of the analysis package.
  Every run extracts every summary afresh; a full ``--project`` run over
  ``src/`` and ``scripts/`` takes a few seconds.
* **Honest approximations**: resolution follows import aliases,
  ``self``-method calls (with base-class chasing), module-local names,
  and ``__init__`` re-export chains; calls through arbitrary local
  objects (``ctx.finish()`` where ``ctx`` is a local) stay unresolved.
  The soundness consequences are documented in ``docs/ANALYSIS.md``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.analysis.checks import _BUDGET_CHECK_CALLS, _is_adaptive_loop

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.checker import ModuleContext

__all__ = [
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "LoopInfo",
    "ModuleSummary",
    "ProjectGraph",
    "RaiseSite",
    "Resolved",
    "extract_module",
]


def _chain(node: ast.expr) -> tuple[str, ...] | None:
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        parts.reverse()
        return tuple(parts)
    return None


@dataclass(frozen=True)
class CallSite:
    """One syntactic call inside a function body."""

    chain: tuple[str, ...]
    lineno: int


@dataclass(frozen=True)
class LoopInfo:
    """One ``for``/``while`` loop: is it adaptive, is it budget-checked."""

    lineno: int
    kind: str  # "for" | "while"
    adaptive: bool
    checked: bool


@dataclass(frozen=True)
class RaiseSite:
    """One ``raise <chain>(...)`` site (bare re-raises are not recorded)."""

    chain: tuple[str, ...]
    lineno: int


@dataclass
class FunctionInfo:
    """Per-function facts the whole-program rules consume."""

    qualname: str  # "name", "Class.name", or "outer.<locals>.inner"
    module: str
    name: str
    cls: str | None
    lineno: int
    calls: list[CallSite] = field(default_factory=list)
    loops: list[LoopInfo] = field(default_factory=list)
    raises: list[RaiseSite] = field(default_factory=list)
    #: Function-level import bindings overlaying the module's.
    bindings: dict[str, str] = field(default_factory=dict)
    #: Names of functions defined directly inside this one.
    local_defs: dict[str, str] = field(default_factory=dict)

    @property
    def key(self) -> str:
        """Graph-wide identity: ``module:qualname``."""
        return f"{self.module}:{self.qualname}"


@dataclass
class ClassInfo:
    """One class and its bases (as dotted strings)."""

    name: str
    lineno: int
    bases: list[str] = field(default_factory=list)


@dataclass
class ModuleSummary:
    """Everything the linker needs to know about one module."""

    module: str
    #: Module-level name bindings: local name → dotted target.
    bindings: dict[str, str] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------
def _import_bindings(
    node: ast.Import | ast.ImportFrom, module: str, is_package: bool
) -> dict[str, str]:
    """Local name → fully-dotted target for one import statement."""
    out: dict[str, str] = {}
    if isinstance(node, ast.Import):
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            out[local] = alias.name if alias.asname else alias.name.split(".")[0]
        return out
    # from X import a, b as c  (level handles relative imports)
    parts = module.split(".") if module else []
    if node.level > 0:
        base = parts if is_package else parts[:-1]
        if node.level > 1:
            base = base[: len(base) - (node.level - 1)]
        prefix = base + (node.module.split(".") if node.module else [])
    else:
        prefix = node.module.split(".") if node.module else []
    for alias in node.names:
        if alias.name == "*":
            continue  # wildcard: unresolvable, documented caveat
        out[alias.asname or alias.name] = ".".join([*prefix, alias.name])
    return out


def _loop_is_checked(loop: ast.For | ast.While) -> bool:
    for stmt in [*loop.body, *loop.orelse]:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                chain = _chain(node.func)
                if chain is not None and chain[-1] in _BUDGET_CHECK_CALLS:
                    return True
    return False


class _FunctionExtractor(ast.NodeVisitor):
    """Collects one function's facts, stopping at nested defs."""

    def __init__(self, info: FunctionInfo) -> None:
        self.info = info

    # -- nested scopes: record, don't descend --------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.info.local_defs[node.name] = (
            f"{self.info.qualname}.<locals>.{node.name}"
        )

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        return  # nested classes: out of scope

    def visit_Lambda(self, node: ast.Lambda) -> None:
        return

    # -- facts ----------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        self.info.bindings.update(
            _import_bindings(node, self.info.module, False)
        )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self.info.bindings.update(
            _import_bindings(node, self.info.module, False)
        )

    def visit_For(self, node: ast.For) -> None:
        self._record_loop(node, "for")
        self.generic_visit(node)

    def visit_While(self, node: ast.While) -> None:
        self._record_loop(node, "while")
        self.generic_visit(node)

    def _record_loop(self, node: ast.For | ast.While, kind: str) -> None:
        self.info.loops.append(
            LoopInfo(
                lineno=node.lineno,
                kind=kind,
                adaptive=_is_adaptive_loop(node),
                checked=_loop_is_checked(node),
            )
        )

    def visit_Raise(self, node: ast.Raise) -> None:
        exc = node.exc
        if exc is not None:
            target = exc.func if isinstance(exc, ast.Call) else exc
            chain = _chain(target)
            if chain is not None:
                self.info.raises.append(
                    RaiseSite(chain=chain, lineno=node.lineno)
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        chain = _chain(node.func)
        if chain is not None:
            self.info.calls.append(CallSite(chain=chain, lineno=node.lineno))
        self.generic_visit(node)


def _extract_function(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    *,
    module: str,
    qualname: str,
    cls: str | None,
) -> FunctionInfo:
    info = FunctionInfo(
        qualname=qualname,
        module=module,
        name=node.name,
        cls=cls,
        lineno=node.lineno,
    )
    extractor = _FunctionExtractor(info)
    for stmt in node.body:
        extractor.visit(stmt)
    return info


def _iter_defs(
    body: Iterable[ast.stmt], prefix: str, cls: str | None
) -> Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef, str, str | None]]:
    """Yield every (def node, qualname, class) in ``body``, recursively."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{prefix}{stmt.name}"
            yield stmt, qualname, cls
            yield from _iter_defs(stmt.body, f"{qualname}.<locals>.", cls)
        elif isinstance(stmt, ast.ClassDef):
            yield from _iter_defs(
                stmt.body, f"{prefix}{stmt.name}.", f"{prefix}{stmt.name}"
            )
        elif isinstance(stmt, (ast.If, ast.Try)):
            # defs behind TYPE_CHECKING / fallback guards still exist
            bodies: list[list[ast.stmt]] = [getattr(stmt, "body", [])]
            bodies.append(getattr(stmt, "orelse", []))
            if isinstance(stmt, ast.Try):
                bodies.append(stmt.finalbody)
                for handler in stmt.handlers:
                    bodies.append(handler.body)
            for nested in bodies:
                yield from _iter_defs(nested, prefix, cls)


def extract_module(context: "ModuleContext") -> ModuleSummary:
    """Build the :class:`ModuleSummary` for one parsed module."""
    is_package = Path(context.path).name == "__init__.py"
    summary = ModuleSummary(module=context.module)
    for stmt in context.tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            summary.bindings.update(
                _import_bindings(stmt, context.module, is_package)
            )
        elif isinstance(stmt, ast.ClassDef):
            bases = []
            for base in stmt.bases:
                base_chain = _chain(base)
                if base_chain is not None:
                    bases.append(".".join(base_chain))
            summary.classes[stmt.name] = ClassInfo(
                name=stmt.name,
                lineno=stmt.lineno,
                bases=bases,
            )
        elif isinstance(stmt, ast.If):
            # TYPE_CHECKING guards at module level may hide imports.
            for nested in [*stmt.body, *stmt.orelse]:
                if isinstance(nested, (ast.Import, ast.ImportFrom)):
                    summary.bindings.update(
                        _import_bindings(nested, context.module, is_package)
                    )
    for node, qualname, cls in _iter_defs(context.tree.body, "", None):
        summary.functions[qualname] = _extract_function(
            node, module=context.module, qualname=qualname, cls=cls
        )
    return summary


# ----------------------------------------------------------------------
# Linking + resolution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Resolved:
    """Outcome of resolving a name: a function key, class, or module."""

    kind: str  # "function" | "class" | "module"
    module: str
    qualname: str = ""

    @property
    def key(self) -> str:
        return f"{self.module}:{self.qualname}" if self.qualname else self.module


class ProjectGraph:
    """Linked module summaries with name resolution and reachability."""

    #: Re-export chains longer than this are cyclic or pathological.
    _MAX_CHASE = 10

    def __init__(self, summaries: Iterable[ModuleSummary]) -> None:
        self.modules: dict[str, ModuleSummary] = {
            s.module: s for s in summaries
        }
        #: Every function in the project, keyed ``module:qualname``.
        self.functions: dict[str, FunctionInfo] = {}
        for summary in self.modules.values():
            for info in summary.functions.values():
                self.functions[info.key] = info
        self._edges: dict[str, set[str]] | None = None

    # -- dotted-name resolution ----------------------------------------
    def resolve_dotted(self, dotted: str, _depth: int = 0) -> Resolved | None:
        """Resolve ``repro.core.engine.adaptive_top_k``-style names.

        Finds the longest module prefix, then walks the remainder
        through that module's defs, classes, and re-export bindings
        (``__init__`` chains are chased up to a fixed depth).
        """
        if _depth > self._MAX_CHASE:
            return None
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            module_name = ".".join(parts[:cut])
            summary = self.modules.get(module_name)
            if summary is None:
                continue
            remainder = parts[cut:]
            if not remainder:
                return Resolved("module", module_name)
            head = remainder[0]
            if head in summary.functions and len(remainder) == 1:
                return Resolved("function", module_name, head)
            if head in summary.classes:
                if len(remainder) == 1:
                    return Resolved("class", module_name, head)
                if len(remainder) == 2:
                    return self._resolve_method(summary, head, remainder[1])
                return None
            if head in summary.bindings:
                target = ".".join([summary.bindings[head], *remainder[1:]])
                return self.resolve_dotted(target, _depth + 1)
            return None
        return None

    def _resolve_method(
        self, summary: ModuleSummary, cls_name: str, method: str, _depth: int = 0
    ) -> Resolved | None:
        """Find ``method`` on ``cls_name`` or its (resolvable) bases."""
        if _depth > self._MAX_CHASE:
            return None
        qualname = f"{cls_name}.{method}"
        if qualname in summary.functions:
            return Resolved("function", summary.module, qualname)
        cls = summary.classes.get(cls_name)
        if cls is None:
            return None
        for base in cls.bases:
            base_resolved = self._resolve_in_module(summary, base)
            if base_resolved is None or base_resolved.kind != "class":
                continue
            base_summary = self.modules.get(base_resolved.module)
            if base_summary is None:
                continue
            found = self._resolve_method(
                base_summary, base_resolved.qualname, method, _depth + 1
            )
            if found is not None:
                return found
        return None

    def _resolve_in_module(
        self, summary: ModuleSummary, dotted: str
    ) -> Resolved | None:
        """Resolve a dotted string as seen from inside ``summary``."""
        parts = dotted.split(".")
        head = parts[0]
        if head in summary.bindings:
            return self.resolve_dotted(
                ".".join([summary.bindings[head], *parts[1:]])
            )
        if head in summary.classes and len(parts) == 1:
            return Resolved("class", summary.module, head)
        if head in summary.classes and len(parts) == 2:
            return self._resolve_method(summary, head, parts[1])
        if head in summary.functions and len(parts) == 1:
            return Resolved("function", summary.module, head)
        return self.resolve_dotted(dotted)

    def resolve_chain(
        self, chain: tuple[str, ...], info: FunctionInfo
    ) -> Resolved | None:
        """Resolve a syntactic call chain as seen from inside ``info``.

        Handles ``self.method()`` (own class + base chasing), names the
        function imported locally, nested defs, module bindings, and
        module-local defs/classes. Calls through arbitrary locals are
        unresolvable by design.
        """
        summary = self.modules.get(info.module)
        if summary is None:
            return None
        head = chain[0]
        if head == "self" and info.cls is not None and len(chain) >= 2:
            return self._resolve_method(summary, info.cls, chain[1])
        if head in info.local_defs:
            qualname = info.local_defs[head]
            if qualname in summary.functions and len(chain) == 1:
                return Resolved("function", info.module, qualname)
            return None
        if head in info.bindings:
            return self.resolve_dotted(
                ".".join([info.bindings[head], *chain[1:]])
            )
        return self._resolve_in_module(summary, ".".join(chain))

    def resolve_callable(
        self, chain: tuple[str, ...], info: FunctionInfo
    ) -> Resolved | None:
        """Like :meth:`resolve_chain`, but a class resolves to ``__init__``."""
        resolved = self.resolve_chain(chain, info)
        if resolved is not None and resolved.kind == "class":
            summary = self.modules.get(resolved.module)
            if summary is not None:
                init = self._resolve_method(summary, resolved.qualname, "__init__")
                if init is not None:
                    return init
        return resolved

    # -- call edges + reachability -------------------------------------
    def edges(self) -> dict[str, set[str]]:
        """Resolved call edges: function key → set of callee keys."""
        if self._edges is None:
            self._edges = {}
            for key, info in self.functions.items():
                out: set[str] = set()
                for site in info.calls:
                    resolved = self.resolve_callable(site.chain, info)
                    if resolved is not None and resolved.kind == "function":
                        out.add(resolved.key)
                self._edges[key] = out
        return self._edges

    def reachable(self, roots: Iterable[str]) -> dict[str, str]:
        """BFS closure over call edges: ``{reached key: root key}``.

        The mapped value is the *first* root that reaches each function,
        which rules use to phrase "reachable from <entry point>"
        messages deterministically (roots are processed in given order).
        """
        edges = self.edges()
        origin: dict[str, str] = {}
        queue: list[str] = []
        for root in roots:
            if root in self.functions and root not in origin:
                origin[root] = root
                queue.append(root)
        while queue:
            current = queue.pop(0)
            for callee in sorted(edges.get(current, ())):
                if callee not in origin:
                    origin[callee] = origin[current]
                    queue.append(callee)
        return origin
