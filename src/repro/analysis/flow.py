"""Intra-procedural determinism-taint analysis (the SWP013 substrate).

Same-seed bit-identity of answers, golden traces, and checkpoints is the
invariant that makes the paper's Definition 5/6 stopping rules testable
at all: a trace event or checkpoint field that depends on the wall
clock, OS entropy, or Python's per-process ``hash`` randomisation turns
every golden-trace diff into noise. This module computes, for one
function at a time, *which local values are tainted by such a source*
and records every call whose arguments carry taint; the whole-program
rule (``SWP013`` in :mod:`repro.analysis.checks_project`) then resolves
those calls against the project call graph to decide which of them are
determinism-sensitive sinks.

Taint model
-----------
Two taint *kinds*:

* ``value`` — the bytes of the value itself are nondeterministic:
  wall-clock reads (``time.time``/``perf_counter``/``monotonic`` …),
  ``os.urandom``/``uuid.uuid4``/``secrets``, unseeded
  ``np.random.default_rng()``, stdlib ``random``, ``id()``, and
  ``hash()`` of a non-``str``-literal argument (``PYTHONHASHSEED``).
* ``order`` — the value's *iteration order* is nondeterministic: ``set``
  / ``frozenset`` displays and constructors. ``sorted``/``min``/``max``
  /``sum``/``len`` cleanse order taint (they are order-insensitive);
  ``list``/``tuple`` conversions and comprehensions preserve it.

Propagation is flow-insensitive within branches (all branch bodies are
merged) and runs two passes over the body so loop-carried taint
stabilises. Deliberate approximations, documented in
``docs/ANALYSIS.md``:

* comparisons yield untainted booleans (a deadline *check* is fine; the
  deadline *value* is not), so budget checkpoints do not smear taint;
* calls to lowercase-named functions drop argument taint — the callee's
  *own* return taint is tracked interprocedurally via ``via`` call
  chains instead; capitalised (constructor-shaped) calls wrap their
  arguments and keep both taint and ``via`` dependencies;
* attribute stores taint the base object (``self.t0 = time.time()``
  taints ``self``), but method calls on tainted locals return clean
  values unless the call chain resolves in the project graph.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable

__all__ = [
    "FunctionFlow",
    "TaintLabel",
    "TaintedCall",
    "analyze_function",
]

#: ``time`` module members whose return value is a wall-clock read.
_TIME_SOURCES = {
    "time",
    "time_ns",
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
    "process_time",
    "process_time_ns",
    "clock",
}

#: Builtins that preserve the values they are given (taint passes through).
_PASS_THROUGH = {
    "list",
    "tuple",
    "dict",
    "iter",
    "reversed",
    "enumerate",
    "zip",
    "str",
    "repr",
    "format",
    "int",
    "float",
    "round",
    "abs",
    "next",
    "copy",
    "deepcopy",
}

#: Builtins whose result does not depend on argument *order* (they cleanse
#: ``order`` taint but preserve ``value`` taint).
_ORDER_CLEANSERS = {"sorted", "min", "max", "sum", "len", "frozenset_sorted"}

#: Method names that mutate their receiver with their arguments' values.
_MUTATORS = {
    "append",
    "add",
    "extend",
    "insert",
    "update",
    "setdefault",
    "__setitem__",
}


@dataclass(frozen=True)
class TaintLabel:
    """One taint fact: the kind (``value``/``order``) and its source."""

    kind: str
    source: str


@dataclass(frozen=True)
class TaintedCall:
    """A call whose arguments carry taint (directly or via other calls).

    ``chain`` is the syntactic callee (``("ckpt", "PlanCheckpoint")``),
    ``labels`` the taint observed directly in the arguments, and ``via``
    the call chains whose *return values* feed the arguments — resolved
    interprocedurally by the project rule.
    """

    chain: tuple[str, ...]
    lineno: int
    col: int
    labels: tuple[TaintLabel, ...]
    via: tuple[tuple[str, ...], ...]


@dataclass
class FunctionFlow:
    """The taint facts one function exports to the whole-program pass."""

    #: Taint labels flowing directly into ``return`` expressions.
    return_labels: tuple[TaintLabel, ...] = ()
    #: Call chains whose return values flow into ``return`` expressions.
    return_via: tuple[tuple[str, ...], ...] = ()
    #: Every call observed with tainted arguments.
    tainted_calls: tuple[TaintedCall, ...] = ()


@dataclass
class _Taint:
    """Mutable taint state of one expression/variable."""

    labels: set[TaintLabel] = field(default_factory=set)
    via: set[tuple[str, ...]] = field(default_factory=set)

    def __bool__(self) -> bool:
        return bool(self.labels) or bool(self.via)

    def merge(self, other: "_Taint") -> "_Taint":
        self.labels |= other.labels
        self.via |= other.via
        return self

    def copy(self) -> "_Taint":
        return _Taint(set(self.labels), set(self.via))

    def without_order(self) -> "_Taint":
        return _Taint(
            {l for l in self.labels if l.kind != "order"}, set(self.via)
        )


def _chain(node: ast.expr) -> tuple[str, ...] | None:
    """``a.b.c`` → ``("a", "b", "c")``; ``None`` for non-name chains."""
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


class _FlowAnalyzer:
    """Walks one function body, tracking per-name taint."""

    def __init__(
        self,
        *,
        time_aliases: set[str],
        os_aliases: set[str],
        numpy_aliases: set[str],
        random_aliases: set[str],
    ) -> None:
        self.time_aliases = time_aliases
        self.os_aliases = os_aliases
        self.numpy_aliases = numpy_aliases
        self.random_aliases = random_aliases
        self.env: dict[str, _Taint] = {}
        self.return_taint = _Taint()
        self.tainted_calls: dict[tuple[int, int, tuple[str, ...]], _Taint] = {}

    # -- sources -------------------------------------------------------
    def _source_labels(self, node: ast.Call) -> set[TaintLabel]:
        chain = _chain(node.func)
        labels: set[TaintLabel] = set()
        if chain is None:
            return labels
        if len(chain) == 2 and chain[0] in self.time_aliases and chain[1] in _TIME_SOURCES:
            labels.add(TaintLabel("value", f"time.{chain[1]}() wall-clock"))
        elif len(chain) == 2 and chain[0] in self.os_aliases and chain[1] == "urandom":
            labels.add(TaintLabel("value", "os.urandom() OS entropy"))
        elif chain[-1] in {"uuid1", "uuid4"}:
            labels.add(TaintLabel("value", f"{chain[-1]}() OS entropy"))
        elif chain[0] == "secrets":
            labels.add(TaintLabel("value", "secrets.* OS entropy"))
        elif (
            len(chain) == 3
            and chain[0] in self.numpy_aliases
            and chain[1] == "random"
            and chain[2] == "default_rng"
        ):
            unseeded = not node.args and not node.keywords
            explicit_none = (
                len(node.args) == 1
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value is None
            )
            if unseeded or explicit_none:
                labels.add(TaintLabel("value", "unseeded default_rng()"))
        elif len(chain) >= 2 and chain[0] in self.random_aliases:
            labels.add(TaintLabel("value", f"stdlib random.{chain[-1]}()"))
        elif chain == ("id",):
            labels.add(TaintLabel("value", "id() object address"))
        elif chain == ("hash",) and node.args:
            arg = node.args[0]
            if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
                labels.add(
                    TaintLabel("value", "hash() of non-str (PYTHONHASHSEED)")
                )
        elif chain in (("set",), ("frozenset",)):
            labels.add(TaintLabel("order", f"{chain[0]}() iteration order"))
        return labels

    # -- expressions ---------------------------------------------------
    def eval(self, node: ast.expr | None) -> _Taint:
        if node is None or isinstance(node, ast.Constant):
            return _Taint()
        if isinstance(node, ast.Name):
            found = self.env.get(node.id)
            return found.copy() if found is not None else _Taint()
        if isinstance(node, ast.Attribute):
            return self.eval(node.value)
        if isinstance(node, ast.Subscript):
            return self.eval(node.value).merge(self.eval(node.slice))
        if isinstance(node, (ast.Starred, ast.Await, ast.UnaryOp)):
            inner = node.value if not isinstance(node, ast.UnaryOp) else node.operand
            return self.eval(inner)
        if isinstance(node, ast.BinOp):
            return self.eval(node.left).merge(self.eval(node.right))
        if isinstance(node, ast.BoolOp):
            taint = _Taint()
            for value in node.values:
                taint.merge(self.eval(value))
            return taint
        if isinstance(node, ast.Compare):
            # Booleans derived from tainted values are sanctioned: a
            # deadline *check* is deterministic enough; smearing taint
            # through every `if elapsed > deadline` would drown the rule.
            for operand in [node.left, *node.comparators]:
                self.eval(operand)
            return _Taint()
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            return self.eval(node.body).merge(self.eval(node.orelse))
        if isinstance(node, ast.JoinedStr):
            taint = _Taint()
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    taint.merge(self.eval(value.value))
            return taint
        if isinstance(node, (ast.List, ast.Tuple)):
            taint = _Taint()
            for elt in node.elts:
                taint.merge(self.eval(elt))
            return taint
        if isinstance(node, ast.Set):
            taint = _Taint()
            for elt in node.elts:
                taint.merge(self.eval(elt))
            taint.labels.add(TaintLabel("order", "set literal iteration order"))
            return taint
        if isinstance(node, ast.Dict):
            taint = _Taint()
            for key in node.keys:
                if key is not None:
                    taint.merge(self.eval(key))
            for value in node.values:
                taint.merge(self.eval(value))
            return taint
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
            taint = self._comprehension_taint(node.generators)
            taint.merge(self.eval(node.elt))
            if isinstance(node, ast.SetComp):
                taint.labels.add(
                    TaintLabel("order", "set comprehension iteration order")
                )
            return taint
        if isinstance(node, ast.DictComp):
            taint = self._comprehension_taint(node.generators)
            taint.merge(self.eval(node.key)).merge(self.eval(node.value))
            return taint
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Lambda):
            return _Taint()
        if isinstance(node, ast.NamedExpr):
            taint = self.eval(node.value)
            self.env[node.target.id] = taint.copy()
            return taint
        # Anything else: evaluate children conservatively, stay clean.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.eval(child)
        return _Taint()

    def _comprehension_taint(
        self, generators: list[ast.comprehension]
    ) -> _Taint:
        taint = _Taint()
        for gen in generators:
            source = self.eval(gen.iter)
            taint.merge(source)
            for name_node in ast.walk(gen.target):
                if isinstance(name_node, ast.Name):
                    self.env[name_node.id] = source.copy()
        return taint

    def _eval_call(self, node: ast.Call) -> _Taint:
        chain = _chain(node.func)
        arg_taint = _Taint()
        for arg in node.args:
            arg_taint.merge(self.eval(arg))
        for keyword in node.keywords:
            arg_taint.merge(self.eval(keyword.value))
        # Record every call whose arguments carry taint; the project
        # rule decides later which of these are sinks.
        if chain is not None and arg_taint:
            key = (node.lineno, node.col_offset, chain)
            self.tainted_calls.setdefault(key, _Taint()).merge(arg_taint)
        # Receiver mutation: out.append(tainted) taints `out`.
        if (
            chain is not None
            and len(chain) >= 2
            and chain[-1] in _MUTATORS
            and chain[0] in self.env
        ):
            self.env[chain[0]].merge(arg_taint)
        labels = self._source_labels(node)
        if labels:
            result = arg_taint.copy()
            result.labels |= labels
            return result
        if chain is None:
            return arg_taint
        receiver = self.env.get(chain[0]) if len(chain) >= 2 else None
        if receiver is not None:
            # Methods of a nondeterministic *generator* return values as
            # tainted as the generator itself: rng.random() inherits the
            # unseeded-rng label. Other tainted receivers keep the
            # documented drop (ctx.finish() on a wall-clock-tainted ctx
            # stays clean).
            generator_labels = {
                label
                for label in receiver.labels
                if "rng" in label.source
                or "random" in label.source
                or "entropy" in label.source
            }
            if generator_labels:
                result = arg_taint.copy()
                result.labels |= generator_labels
                result.via |= receiver.via
                return result
        name = chain[-1]
        if name == "sorted" or name in _ORDER_CLEANSERS:
            return arg_taint.without_order()
        if name in _PASS_THROUGH:
            return arg_taint
        if name[:1].isupper():
            # Constructor-shaped: the object wraps its arguments, so
            # both taint labels and via-dependencies survive.
            return arg_taint
        # Ordinary call: argument taint is dropped (documented
        # under-approximation); the callee's own return taint is tracked
        # through the via dependency instead.
        return _Taint(set(), {chain})

    # -- statements ----------------------------------------------------
    def exec_body(self, body: Iterable[ast.stmt]) -> None:
        for stmt in body:
            self.exec_stmt(stmt)

    def _assign_target(self, target: ast.expr, taint: _Taint) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = taint.copy()
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign_target(elt, taint)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            # Storing a tainted value into an object taints the object.
            base: ast.expr = target
            while isinstance(base, ast.Subscript):
                base = base.value
            chain = _chain(base)
            if chain is not None and chain[0] in self.env:
                self.env[chain[0]].merge(taint)
            elif chain is not None and taint:
                self.env.setdefault(chain[0], _Taint()).merge(taint)
        elif isinstance(target, ast.Starred):
            self._assign_target(target.value, taint)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            taint = self.eval(stmt.value)
            for target in stmt.targets:
                self._assign_target(target, taint)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign_target(stmt.target, self.eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            taint = self.eval(stmt.value)
            existing = (
                self.env.get(stmt.target.id, _Taint()).copy()
                if isinstance(stmt.target, ast.Name)
                else _Taint()
            )
            self._assign_target(stmt.target, existing.merge(taint))
        elif isinstance(stmt, ast.Return):
            self.return_taint.merge(self.eval(stmt.value))
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, (ast.If,)):
            self.eval(stmt.test)
            self.exec_body(stmt.body)
            self.exec_body(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            source = self.eval(stmt.iter)
            self._assign_target(stmt.target, source)
            self.exec_body(stmt.body)
            self.exec_body(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test)
            self.exec_body(stmt.body)
            self.exec_body(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taint = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign_target(item.optional_vars, taint)
            self.exec_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.exec_body(stmt.body)
            for handler in stmt.handlers:
                self.exec_body(handler.body)
            self.exec_body(stmt.orelse)
            self.exec_body(stmt.finalbody)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.eval(stmt.exc)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # Nested definitions are out of scope for this pass (their
            # bodies execute in their own frame); documented caveat.
            return
        # pass/break/continue/global/nonlocal/import/assert/delete: no flow.


def analyze_function(
    function: ast.FunctionDef | ast.AsyncFunctionDef,
    *,
    time_aliases: set[str],
    os_aliases: set[str],
    numpy_aliases: set[str],
    random_aliases: set[str],
) -> FunctionFlow:
    """Two-pass intra-procedural taint analysis of one function body.

    The second pass re-runs with the first pass's environment so
    loop-carried taint (``out.append(x)`` inside ``for x in tainted``)
    stabilises; two passes suffice because taint only grows and depth-1
    feedback is the only loop-carried dependency the model admits.
    """
    analyzer = _FlowAnalyzer(
        time_aliases=time_aliases,
        os_aliases=os_aliases,
        numpy_aliases=numpy_aliases,
        random_aliases=random_aliases,
    )
    for _ in range(2):
        analyzer.tainted_calls.clear()
        analyzer.return_taint = _Taint()
        analyzer.exec_body(function.body)
    calls = tuple(
        TaintedCall(
            chain=chain,
            lineno=lineno,
            col=col,
            labels=tuple(sorted(t.labels, key=lambda l: (l.kind, l.source))),
            via=tuple(sorted(t.via)),
        )
        for (lineno, col, chain), t in sorted(analyzer.tainted_calls.items())
    )
    return FunctionFlow(
        return_labels=tuple(
            sorted(analyzer.return_taint.labels, key=lambda l: (l.kind, l.source))
        ),
        return_via=tuple(sorted(analyzer.return_taint.via)),
        tainted_calls=calls,
    )
