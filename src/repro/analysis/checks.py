"""The concrete SWOPE per-module rules: ``SWP001``–``SWP012``, ``SWP017``,
and ``SWP018``.

Each rule encodes one repository invariant that the test suite can only
spot-check; ``docs/ANALYSIS.md`` documents the rationale and the
sanctioned suppressions. Rules are pure functions over a
:class:`~repro.analysis.checker.ModuleContext` and register themselves
via :func:`repro.analysis.rules.rule`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.checker import ModuleContext
from repro.analysis.rules import RULES, Severity, Violation, rule

__all__ = ["RULES"]


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def _attribute_chain(node: ast.expr) -> list[str] | None:
    """``a.b.c`` → ``["a", "b", "c"]``; ``None`` for non-name chains."""
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        parts.reverse()
        return parts
    return None


def _is_numeric_literal(node: ast.expr) -> bool:
    value = node.value if isinstance(node, ast.Constant) else None
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _loop_body_nodes(loop: ast.For | ast.While) -> Iterator[ast.AST]:
    for stmt in [*loop.body, *loop.orelse]:
        yield from ast.walk(stmt)


# ----------------------------------------------------------------------
# SWP001 — entropy math in repro.core must be base-2
# ----------------------------------------------------------------------
@rule(
    "SWP001",
    "base2-logs",
    summary="repro.core entropy math must use base-2 logs (bits, Lemmas 1-3)",
    scope="repro.core",
)
def _check_base2_logs(context: ModuleContext) -> Iterator[Violation]:
    """Flag natural/decimal logs in :mod:`repro.core`.

    ``math.log`` with a single *numeric-literal* argument is permitted —
    that is the ``ln 2`` unit-conversion constant — as is an explicit
    base-2 second argument. Genuine natural logs inside a bound's
    formula (Lemma 3 uses ``ln``) carry a ``# noqa: SWP001`` with a
    justification.
    """
    if not context.in_package("repro.core"):
        return
    this = RULES["SWP001"]
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _attribute_chain(node.func)
        if chain is None or len(chain) != 2:
            continue
        root, name = chain
        if root in context.math_aliases and name in {"log", "log10", "log1p"}:
            if name == "log":
                if len(node.args) == 1 and not node.keywords:
                    if _is_numeric_literal(node.args[0]):
                        continue  # the ln-2 style unit constant
                elif (
                    len(node.args) == 2
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value in (2, 2.0)
                ):
                    continue  # explicit base 2
            yield context.violation(
                this,
                node,
                f"{root}.{name} in repro.core: entropy quantities are in bits"
                " — use math.log2, or '# noqa: SWP001' where the bound's"
                " formula genuinely takes a natural log",
            )
        elif root in context.numpy_aliases and name in {"log", "log10", "log1p"}:
            yield context.violation(
                this,
                node,
                f"{root}.{name} in repro.core: entropy quantities are in bits"
                " — use np.log2, or '# noqa: SWP001' where natural log is"
                " intended",
            )


# ----------------------------------------------------------------------
# SWP002 — no unseeded / global-state RNG
# ----------------------------------------------------------------------
#: ``np.random`` members that construct explicit generators (allowed).
_NP_RANDOM_CONSTRUCTORS = {
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "MT19937",
    "Philox",
    "SFC64",
}


@rule(
    "SWP002",
    "seeded-rng",
    summary="all randomness must flow through an explicit numpy Generator",
    scope="everywhere except repro.testing",
)
def _check_seeded_rng(context: ModuleContext) -> Iterator[Violation]:
    """Flag global-state and unseedable RNG entry points.

    * legacy ``np.random.<fn>()`` calls (``rand``, ``seed``, ``choice``,
      ``RandomState``, …) mutate or read hidden global state;
    * ``np.random.default_rng()`` with no argument (or an explicit
      ``None``) is OS-entropy seeded and unreproducible;
    * any stdlib ``random.<fn>()`` call or ``from random import …``.

    :mod:`repro.testing` (fault injection) is exempt by scope.
    """
    if context.in_package("repro.testing"):
        return
    this = RULES["SWP002"]
    for node in ast.walk(context.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            yield context.violation(
                this,
                node,
                "stdlib random is global-state RNG: thread a seeded"
                " numpy.random.Generator instead",
            )
            continue
        if not isinstance(node, ast.Call):
            continue
        chain = _attribute_chain(node.func)
        if chain is None:
            continue
        if (
            len(chain) == 3
            and chain[0] in context.numpy_aliases
            and chain[1] == "random"
        ):
            member = chain[2]
            if member in _NP_RANDOM_CONSTRUCTORS:
                continue
            if member == "default_rng":
                unseeded = not node.args and not node.keywords
                explicit_none = (
                    len(node.args) == 1
                    and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value is None
                )
                if unseeded or explicit_none:
                    yield context.violation(
                        this,
                        node,
                        "default_rng() without a seed draws from OS entropy:"
                        " pass a seed or accept a Generator parameter",
                    )
                continue
            yield context.violation(
                this,
                node,
                f"np.random.{member} uses numpy's hidden global RNG state:"
                " thread a seeded numpy.random.Generator instead",
            )
        elif (
            len(chain) == 2
            and chain[0] in context.random_aliases
        ):
            yield context.violation(
                this,
                node,
                f"random.{chain[1]} is global-state RNG: thread a seeded"
                " numpy.random.Generator instead",
            )


# ----------------------------------------------------------------------
# SWP003 — adaptive loops must observe budget / cancellation
# ----------------------------------------------------------------------
#: Call names that count as a budget/cancellation checkpoint.
_BUDGET_CHECK_CALLS = {
    "interruption",
    "exhausted",
    "raise_if_cancelled",
    "check_interruption",
}


def _is_adaptive_loop(loop: ast.For | ast.While) -> bool:
    """A loop that grows the sample: iterates a schedule's ``.sizes``."""
    if isinstance(loop, ast.For):
        for node in ast.walk(loop.iter):
            if isinstance(node, ast.Attribute) and node.attr == "sizes":
                return True
        return False
    # ``while`` in the engine/baselines: adaptive iff it computes intervals.
    for node in _loop_body_nodes(loop):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "interval"
        ):
            return True
    return False


@rule(
    "SWP003",
    "budget-checked-loops",
    summary="adaptive sampling loops must check QueryBudget/CancellationToken",
    scope="repro.core.engine and repro.baselines",
)
def _check_budgeted_loops(context: ModuleContext) -> Iterator[Violation]:
    """Every schedule-driven loop needs a per-iteration interruption check.

    The PR-1 resilience contract: between iterations, an adaptive loop
    calls ``QueryBudget.exhausted`` / observes its ``CancellationToken``
    (in practice via a helper named ``interruption`` or
    ``check_interruption``), so production queries stay bounded and
    cancellable. Applies to :mod:`repro.core.engine` and every module
    under :mod:`repro.baselines`.
    """
    if not (
        context.module == "repro.core.engine"
        or context.in_package("repro.baselines")
    ):
        return
    this = RULES["SWP003"]
    for node in ast.walk(context.tree):
        if not isinstance(node, (ast.For, ast.While)):
            continue
        if not _is_adaptive_loop(node):
            continue
        checked = False
        for inner in _loop_body_nodes(node):
            if isinstance(inner, ast.Call):
                name: str | None = None
                if isinstance(inner.func, ast.Attribute):
                    name = inner.func.attr
                elif isinstance(inner.func, ast.Name):
                    name = inner.func.id
                if name in _BUDGET_CHECK_CALLS:
                    checked = True
                    break
        if not checked:
            yield context.violation(
                this,
                node,
                "adaptive loop never checks its QueryBudget/CancellationToken:"
                " call the interruption checkpoint once per iteration",
            )


# ----------------------------------------------------------------------
# SWP004 — no float == / != on entropy or interval values
# ----------------------------------------------------------------------
_SCORE_IDENTIFIERS = {"estimate", "lower", "upper", "midpoint", "width"}


def _is_score_expression(node: ast.expr) -> str | None:
    """The identifier that makes ``node`` an entropy/interval value."""
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    else:
        return None
    if (
        name in _SCORE_IDENTIFIERS and isinstance(node, ast.Attribute)
    ) or name.endswith("entropy") or "interval" in name or name in {
        "mutual_information",
        "midpoint",
    } or name.endswith("_mi"):
        return name
    return None


@rule(
    "SWP004",
    "no-float-score-equality",
    summary="entropy/interval values must not be compared with == or !=",
    scope="src/repro",
)
def _check_float_equality(context: ModuleContext) -> Iterator[Violation]:
    """Exact equality on computed scores is numerically meaningless.

    Entropy estimates, interval endpoints, and MI scores come out of
    floating-point log arithmetic; ``==``/``!=`` on them silently
    encodes "bit-identical rounding", which breaks under any refactor of
    the arithmetic. Compare with an ordering (``<=``) or a tolerance
    (``math.isclose``) instead.
    """
    if not context.in_package("repro"):
        return
    this = RULES["SWP004"]
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        for operand in [node.left, *node.comparators]:
            name = _is_score_expression(operand)
            if name is not None:
                yield context.violation(
                    this,
                    node,
                    f"float equality on score value {name!r}: use an ordering"
                    " comparison or math.isclose",
                )
                break


# ----------------------------------------------------------------------
# SWP005 — public APIs validate parameters, not assert
# ----------------------------------------------------------------------
def _parameter_names(function: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    args = function.args
    names = {
        a.arg
        for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
        if a.arg not in {"self", "cls"}
    }
    for extra in (args.vararg, args.kwarg):
        if extra is not None:
            names.add(extra.arg)
    return names


def _is_narrowing_assert(node: ast.Assert) -> bool:
    """``assert x is not None`` — the sanctioned type-narrowing idiom."""
    test = node.test
    return (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.IsNot)
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    )


@rule(
    "SWP005",
    "validate-not-assert",
    severity=Severity.WARNING,
    summary="public functions must validate parameters via validators, not assert",
    scope="src/repro",
)
def _check_parameter_asserts(context: ModuleContext) -> Iterator[Violation]:
    """Flag ``assert`` statements that guard a public function's parameters.

    ``assert`` disappears under ``python -O``, so it must never carry
    input validation for the public API — use
    :func:`repro.core.engine.validate_epsilon` and friends, or raise
    :class:`repro.exceptions.ParameterError`. Internal invariant asserts
    (on locals) and ``assert x is not None`` narrowing remain allowed.
    """
    if not context.in_package("repro"):
        return
    this = RULES["SWP005"]
    for node in ast.walk(context.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("_"):
            continue
        parameters = _parameter_names(node)
        if not parameters:
            continue
        for inner in ast.walk(node):
            if not isinstance(inner, ast.Assert) or _is_narrowing_assert(inner):
                continue
            referenced = {
                n.id
                for n in ast.walk(inner.test)
                if isinstance(n, ast.Name)
            }
            guarded = sorted(parameters & referenced)
            if guarded:
                yield context.violation(
                    this,
                    inner,
                    f"assert guards parameter(s) {', '.join(guarded)} of public"
                    f" function {node.name!r}; asserts vanish under -O — use a"
                    " validator or raise ParameterError",
                )


# ----------------------------------------------------------------------
# SWP006 — __all__ must match the module's public definitions
# ----------------------------------------------------------------------
def _module_all(tree: ast.Module) -> tuple[ast.AST, list[str]] | None:
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                if isinstance(value, (ast.List, ast.Tuple)) and all(
                    isinstance(e, ast.Constant) and isinstance(e.value, str)
                    for e in value.elts
                ):
                    names = [e.value for e in value.elts]  # type: ignore[union-attr]
                    return node, names
                return node, []
    return None


def _module_level_bindings(tree: ast.Module) -> tuple[set[str], set[str]]:
    """``(definitions, all_bindings)`` at module level.

    ``definitions`` are def/class statements (what SWP006 requires to be
    exported); ``all_bindings`` additionally include assignments and
    imports (what an ``__all__`` entry may legally refer to).
    """
    defs: set[str] = set()
    bindings: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.add(node.name)
            bindings.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for name_node in ast.walk(target):
                    if isinstance(name_node, ast.Name):
                        bindings.add(name_node.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bindings.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bindings.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, (ast.If, ast.Try)):
            # Conditional definitions (version guards) still bind names.
            for inner in ast.walk(node):
                if isinstance(
                    inner, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    bindings.add(inner.name)
    return defs, bindings


@rule(
    "SWP006",
    "all-matches-defs",
    severity=Severity.WARNING,
    summary="__all__ must list exactly the module's public defs",
    scope="src/repro modules that declare __all__",
)
def _check_dunder_all(context: ModuleContext) -> Iterator[Violation]:
    """Keep ``__all__`` and the actual public surface in lock-step.

    Two directions: every ``__all__`` entry must be bound in the module,
    and every module-level public ``def``/``class`` must appear in
    ``__all__``. Module-level constants are not forced into ``__all__``
    (exporting them is a choice), and modules without ``__all__`` are
    out of scope.
    """
    if not context.in_package("repro"):
        return
    declared = _module_all(context.tree)
    if declared is None:
        return
    this = RULES["SWP006"]
    all_node, exported = declared
    defs, bindings = _module_level_bindings(context.tree)
    for name in exported:
        if name not in bindings:
            yield context.violation(
                this,
                all_node,
                f"__all__ exports {name!r} but the module never defines it",
            )
    for name in sorted(defs):
        if not name.startswith("_") and name not in exported:
            yield context.violation(
                this,
                all_node,
                f"public definition {name!r} is missing from __all__",
            )


# ----------------------------------------------------------------------
# SWP007 — raised exceptions derive from repro.exceptions
# ----------------------------------------------------------------------
_BUILTIN_EXCEPTIONS = {
    "ArithmeticError",
    "AssertionError",
    "AttributeError",
    "BaseException",
    "BufferError",
    "EOFError",
    "Exception",
    "IOError",
    "IndexError",
    "KeyError",
    "LookupError",
    "MemoryError",
    "OSError",
    "OverflowError",
    "RuntimeError",
    "StopIteration",
    "SystemError",
    "TypeError",
    "ValueError",
    "ZeroDivisionError",
}


@rule(
    "SWP007",
    "repro-exceptions-only",
    summary="errors raised in src/repro must derive from repro.exceptions",
    scope="src/repro except repro.testing",
)
def _check_exception_hierarchy(context: ModuleContext) -> Iterator[Violation]:
    """Intentional errors must be catchable as :class:`ReproError`.

    Callers are promised one base class at the API boundary; a stray
    ``ValueError`` breaks that contract. ``NotImplementedError`` stays
    allowed (abstract seams), bare re-raises stay allowed, and
    :mod:`repro.testing` is exempt — its fault injectors deliberately
    raise infrastructure errors like ``OSError``.
    """
    if not context.in_package("repro") or context.in_package("repro.testing"):
        return
    this = RULES["SWP007"]
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        name: str | None = None
        if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
            name = exc.func.id
        elif isinstance(exc, ast.Name):
            name = exc.id
        if name in _BUILTIN_EXCEPTIONS:
            yield context.violation(
                this,
                node,
                f"raise {name}: intentional errors must derive from"
                " repro.exceptions.ReproError (multiple inheritance with the"
                " builtin keeps old callers working)",
            )


# ----------------------------------------------------------------------
# SWP008 — no time.time() in measured paths
# ----------------------------------------------------------------------
@rule(
    "SWP008",
    "monotonic-timing",
    summary="use time.perf_counter(), not time.time(), for measured intervals",
    scope="everywhere",
)
def _check_wall_clock_timing(context: ModuleContext) -> Iterator[Violation]:
    """``time.time()`` is not monotonic; measured durations must never use it.

    NTP slew or a clock step corrupts deadlines and reported
    ``wall_seconds``. True calendar timestamps (log lines, report
    headers) are the only sanctioned use and carry ``# noqa: SWP008``.
    """
    this = RULES["SWP008"]
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _attribute_chain(node.func)
        if (
            chain is not None
            and len(chain) == 2
            and chain[0] in context.time_aliases
            and chain[1] in {"time", "clock"}
        ):
            yield context.violation(
                this,
                node,
                f"time.{chain[1]}() is non-monotonic: use time.perf_counter()"
                " for measured intervals (calendar timestamps may be"
                " suppressed with a justification)",
            )


# ----------------------------------------------------------------------
# SWP009 — occurrence counting stays behind the CountingBackend seam
# ----------------------------------------------------------------------
@rule(
    "SWP009",
    "counting-behind-backend",
    summary="bincount/joint counting outside repro.data must go through the"
    " CountingBackend seam",
    scope="src/repro except repro.data",
)
def _check_counting_seam(context: ModuleContext) -> Iterator[Violation]:
    """Keep sample counting inside the pluggable backend layer.

    The batched execution core routes every occurrence count through
    :class:`repro.data.backends.CountingBackend` (marginals) and
    :class:`repro.data.joint.JointCounter` via the sampler's batch
    methods (joints), so backends stay interchangeable and the cost
    accounting stays exact. A ``np.bincount`` or a ``JointCounter``
    construction elsewhere in ``src/repro`` bypasses that seam —
    estimator-internal histogramming of *derived* values (e.g.
    conditional splits) may be suppressed with ``# noqa: SWP009`` and a
    justification.
    """
    if not context.in_package("repro") or context.in_package("repro.data"):
        return
    this = RULES["SWP009"]
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _attribute_chain(node.func)
        if (
            chain is not None
            and len(chain) == 2
            and chain[0] in context.numpy_aliases
            and chain[1] == "bincount"
        ):
            yield context.violation(
                this,
                node,
                "np.bincount outside repro.data: count samples through"
                " PrefixSampler / a CountingBackend so the seam stays"
                " pluggable, or '# noqa: SWP009' with a justification",
            )
        elif isinstance(node.func, ast.Name) and node.func.id == "JointCounter":
            yield context.violation(
                this,
                node,
                "JointCounter construction outside repro.data: use"
                " PrefixSampler.joint_counts_batch, or '# noqa: SWP009'"
                " with a justification",
            )


# ----------------------------------------------------------------------
# SWP010 — repro.core must not write to stdout/stderr directly
# ----------------------------------------------------------------------
@rule(
    "SWP010",
    "no-direct-output",
    summary="repro.core must not print or write to stdout/stderr; emit trace"
    " events instead",
    scope="repro.core",
)
def _check_direct_output(context: ModuleContext) -> Iterator[Violation]:
    """The engine narrates through :mod:`repro.obs`, never through stdout.

    A ``print()`` or ``sys.stdout``/``sys.stderr`` write inside
    :mod:`repro.core` corrupts machine-readable CLI output, breaks
    byte-stable golden traces, and cannot be disabled per query. Emit a
    :class:`repro.obs.events.TraceEvent` to the query's sink (or record a
    metric) instead; human-facing rendering belongs to :mod:`repro.cli`.
    """
    if not context.in_package("repro.core"):
        return
    this = RULES["SWP010"]
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            yield context.violation(
                this,
                node,
                "print() in repro.core: route diagnostics through a TraceSink"
                " (repro.obs) so callers control the output channel",
            )
            continue
        chain = _attribute_chain(node.func)
        if (
            chain is not None
            and len(chain) == 3
            and chain[0] in context.sys_aliases
            and chain[1] in {"stdout", "stderr"}
            and chain[2] in {"write", "writelines"}
        ):
            yield context.violation(
                this,
                node,
                f"sys.{chain[1]}.{chain[2]} in repro.core: route diagnostics"
                " through a TraceSink (repro.obs) so callers control the"
                " output channel",
            )


# ----------------------------------------------------------------------
# SWP011 — the adaptive loops are reached only through the planner
# ----------------------------------------------------------------------
_ADAPTIVE_LOOPS = {"adaptive_top_k", "adaptive_filter"}

#: Modules allowed to touch the loops directly: the engine defines them,
#: and the planner dispatches to them (``PlanExecutor.execute_one`` for
#: plans, the executor's query methods and the four ``swope_*``
#: functions; ``run_exact_stopping`` for the exact-stopping baselines).
_ADAPTIVE_LOOP_MODULES = {"repro.core.engine", "repro.core.plan"}


@rule(
    "SWP011",
    "loops-behind-planner",
    summary="adaptive_top_k/adaptive_filter outside repro.core.plan must go"
    " through the planner",
    scope="src/repro except repro.core.engine and repro.core.plan",
)
def _check_planner_seam(context: ModuleContext) -> Iterator[Violation]:
    """Keep the adaptive loops behind the query-planner seam.

    :mod:`repro.core.plan` is the single place that builds providers,
    schedules, and failure budgets before entering
    :func:`~repro.core.engine.adaptive_top_k` /
    :func:`~repro.core.engine.adaptive_filter`; a direct call elsewhere
    in ``src/repro`` re-derives (and eventually diverges from) that
    wiring and bypasses plan-wide budgets, shared-scan accounting, and
    the plan trace events. Route new call sites through a
    :class:`~repro.core.plan.QuerySpec`: ``PlanExecutor.execute_one``
    for SWOPE's stopping rule, ``run_exact_stopping`` for the exact one.
    """
    if (
        not context.in_package("repro")
        or context.module in _ADAPTIVE_LOOP_MODULES
    ):
        return
    this = RULES["SWP011"]
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        name: str | None = None
        if isinstance(node.func, ast.Name):
            name = node.func.id
        else:
            chain = _attribute_chain(node.func)
            if chain is not None:
                name = chain[-1]
        if name in _ADAPTIVE_LOOPS:
            yield context.violation(
                this,
                node,
                f"{name}() outside repro.core.plan: build a QuerySpec and"
                " call PlanExecutor.execute_one (or a swope_* entry point,"
                " or run_exact_stopping for the exact stopping rule) so"
                " budgets, shared-scan accounting, and plan events stay wired",
            )


# ----------------------------------------------------------------------
# SWP012 — durable artifacts are written atomically
# ----------------------------------------------------------------------
_WRITE_MODES = {"w", "wb", "wt", "w+", "w+b", "wb+", "x", "xb", "xt", "x+"}

#: Packages allowed to open files for writing directly: the atomic
#: writer itself, and the chaos harness (whose *job* is producing the
#: torn files the atomic writer prevents).
_ATOMIC_EXEMPT_PACKAGES = ("repro.durability", "repro.testing")


def _call_write_mode(node: ast.Call) -> str | None:
    """The string-constant write mode of an open()-style call, if any."""
    mode_arg: ast.expr | None = None
    if len(node.args) >= 2:
        mode_arg = node.args[1]
    elif len(node.args) == 1 and isinstance(node.func, ast.Attribute):
        # path.open("w") — the path object is the receiver, mode is arg 0.
        mode_arg = node.args[0]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode_arg = keyword.value
    if (
        isinstance(mode_arg, ast.Constant)
        and isinstance(mode_arg.value, str)
        and mode_arg.value.replace("a", "w") in _WRITE_MODES
    ):
        return mode_arg.value
    return None


@rule(
    "SWP012",
    "atomic-durable-writes",
    summary="durable artifacts must go through repro.durability.atomic"
    " (write-temp-then-rename), not bare open/write_text",
    scope="src/repro except repro.durability and repro.testing",
)
def _check_atomic_writes(context: ModuleContext) -> Iterator[Violation]:
    """Every durable artifact survives a crash mid-write, or it is not durable.

    A bare ``open(path, "w")`` / ``Path.write_text`` truncates the
    destination before the new bytes land: a crash (or a full disk)
    between those two moments destroys the previous artifact *and* the
    new one. Checkpoints, traces, metrics dumps, bench JSON, and
    experiment results must route through
    :func:`repro.durability.atomic.atomic_write_text` /
    ``atomic_write_bytes`` / :class:`~repro.durability.atomic.AtomicTextFile`,
    which publish by ``os.replace`` only after a flushed, fsynced temp
    write. :mod:`repro.durability` (the implementation) and
    :mod:`repro.testing` (which deliberately manufactures torn files)
    are exempt; a genuinely non-durable scratch write may suppress with
    ``# noqa: SWP012`` and a justification.
    """
    if not context.in_package("repro") or any(
        context.in_package(package) for package in _ATOMIC_EXEMPT_PACKAGES
    ):
        return
    this = RULES["SWP012"]
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            mode = _call_write_mode(node)
            if mode is not None:
                yield context.violation(
                    this,
                    node,
                    f"open(..., {mode!r}) writes in place: a crash mid-write"
                    " tears the artifact — use repro.durability.atomic"
                    " (atomic_write_text/AtomicTextFile), or '# noqa:"
                    " SWP012' for scratch files",
                )
            continue
        if not isinstance(node.func, ast.Attribute):
            continue
        method = node.func.attr
        if method in {"write_text", "write_bytes"}:
            yield context.violation(
                this,
                node,
                f".{method}() writes in place: a crash mid-write tears the"
                " artifact — use repro.durability.atomic"
                " (atomic_write_text/atomic_write_bytes), or '# noqa:"
                " SWP012' for scratch files",
            )
        elif method == "open":
            mode = _call_write_mode(node)
            if mode is not None:
                yield context.violation(
                    this,
                    node,
                    f".open({mode!r}) writes in place: a crash mid-write"
                    " tears the artifact — use repro.durability.atomic, or"
                    " '# noqa: SWP012' for scratch files",
                )


# ----------------------------------------------------------------------
# SWP017 — cache access always names the dataset fingerprint
# ----------------------------------------------------------------------
#: The one package allowed to build partitions without going through
#: ``PlanCache.partition(fingerprint=..., shuffle=...)``: the cache itself.
_CACHE_PACKAGE = "repro.cache"

#: Keywords every partition lookup must spell at the call site.
_PARTITION_KEYS = {"fingerprint", "shuffle"}


def _looks_like_cache_partition_call(node: ast.Call) -> bool:
    """Whether a ``.partition(...)`` call is cache access, not ``str.partition``.

    ``str.partition(sep)`` takes exactly one positional argument and no
    keywords; a cache partition lookup is keyword-only. Anything with
    keywords, no arguments at all, or two-plus positionals is treated as
    cache access — a deliberate over-approximation, suppressible with
    ``# noqa: SWP017`` where a non-string ``partition`` API is in play.
    """
    if node.keywords:
        return True
    if not node.args:
        return True
    return len(node.args) >= 2


@rule(
    "SWP017",
    "cache-keys-name-fingerprints",
    summary="cache partitions are reached only via PlanCache.partition with"
    " explicit fingerprint=/shuffle= keys",
    scope="src/repro except repro.cache",
)
def _check_cache_fingerprints(context: ModuleContext) -> Iterator[Violation]:
    """No fingerprint-free cache paths outside ``repro.cache``.

    Cached counters and answers are only valid for one ``(dataset
    fingerprint, shuffle fingerprint)`` pair — state reached without
    naming both keys can silently serve another dataset's counts. Two
    shapes are flagged outside :mod:`repro.cache`:

    * constructing :class:`~repro.cache.CachePartition` directly — the
      partition must come from :meth:`~repro.cache.PlanCache.partition`,
      which requires the keys and wires on-disk loading;
    * calling ``.partition(...)`` without *both* ``fingerprint=`` and
      ``shuffle=`` keywords (``str.partition`` calls are recognised and
      skipped; other ``partition`` APIs may suppress with ``# noqa:
      SWP017`` and a justification).
    """
    if not context.in_package("repro") or context.in_package(_CACHE_PACKAGE):
        return
    this = RULES["SWP017"]
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            if node.func.id == "CachePartition":
                yield context.violation(
                    this,
                    node,
                    "CachePartition() outside repro.cache: get the partition"
                    " from PlanCache.partition(fingerprint=..., shuffle=...)"
                    " so the dataset identity is part of the key and on-disk"
                    " state is loaded, or '# noqa: SWP017' with a"
                    " justification",
                )
            continue
        chain = _attribute_chain(node.func)
        if chain is None or chain[-1] != "partition":
            continue
        if not _looks_like_cache_partition_call(node):
            continue
        missing = sorted(
            _PARTITION_KEYS
            - {kw.arg for kw in node.keywords if kw.arg is not None}
        )
        if missing:
            yield context.violation(
                this,
                node,
                f".partition() without {'/'.join(missing)}: cache state is"
                " keyed by (dataset fingerprint, shuffle fingerprint) — spell"
                " both keywords at the call site, or '# noqa: SWP017' for"
                " non-cache partition APIs",
            )


# ----------------------------------------------------------------------
# SWP018 — no whole-column materialisation outside the storage layer
# ----------------------------------------------------------------------
#: Packages allowed to take whole-column handles: the storage layer
#: itself (it implements the block API) and the exact baselines (which
#: are full scans by definition).
_COLUMN_EXEMPT_PACKAGES = ("repro.data", "repro.baselines")


@rule(
    "SWP018",
    "no-whole-column-reads",
    summary="whole-column reads (.column(...)) outside repro.data and"
    " repro.baselines must use .column_block(...)",
    scope="src/repro except repro.data and repro.baselines",
)
def _check_whole_column_reads(context: ModuleContext) -> Iterator[Violation]:
    """Keep out-of-core datasets out of RAM.

    :class:`~repro.data.column_store.ColumnSource.column` hands back the
    *whole* column — on a memory-mapped store that is a page-in of the
    entire attribute, defeating the block-read design that lets
    ``N ≫ RAM`` datasets stream. Algorithm and application code must ask
    for exactly the rows it needs via
    :meth:`~repro.data.column_store.ColumnSource.column_block`, whose
    selector matches the sampler's permutation-prefix access pattern.
    Deliberate full scans (the exact CMI substrate) and wrappers that
    *implement* the read path may suppress with ``# noqa: SWP018`` and a
    justification.
    """
    if not context.in_package("repro") or any(
        context.in_package(package) for package in _COLUMN_EXEMPT_PACKAGES
    ):
        return
    this = RULES["SWP018"]
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        if not (
            isinstance(node.func, ast.Attribute) and node.func.attr == "column"
        ):
            continue
        yield context.violation(
            this,
            node,
            ".column() outside repro.data/repro.baselines materialises the"
            " whole column and defeats out-of-core streaming — read only the"
            " rows you need with .column_block(name, rows), or"
            " '# noqa: SWP018' with a justification for deliberate full"
            " scans",
        )
