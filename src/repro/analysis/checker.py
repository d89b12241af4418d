"""Parse modules, apply rules, resolve ``# noqa: SWP###`` suppressions.

The checker is deliberately self-contained (stdlib ``ast`` + ``re``
only) so the analysis pass can run in any environment that can import
the package — no third-party linter framework involved.

Suppression contract
--------------------
A violation reported at line *L* is suppressed when line *L* carries a
``# noqa: SWP###`` comment naming its rule code (several codes may be
comma-separated: ``# noqa: SWP001, SWP004``). Bare ``# noqa`` without
codes is **ignored** — suppressions must say what they suppress, so a
reader can audit them. Every suppression that names a selected rule
which did *not* fire on its line is itself reported as ``SWP000``
(unused suppression, warning severity): stale suppressions hide future
regressions and must be deleted.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.exceptions import AnalysisError

from repro.analysis.rules import (
    RULES,
    Rule,
    Severity,
    UNUSED_SUPPRESSION,
    Violation,
    iter_rules,
)

__all__ = [
    "AnalysisReport",
    "ModuleContext",
    "analyze_file",
    "analyze_paths",
    "analyze_source",
    "build_context",
    "iter_python_files",
]

_NOQA_PATTERN = re.compile(
    r"#\s*noqa:\s*(?P<codes>SWP\d{3}(?:\s*,\s*SWP\d{3})*)", re.IGNORECASE
)

#: Directory names never descended into when expanding path arguments.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache", "build"}


@dataclass
class ModuleContext:
    """Everything a rule needs to inspect one module.

    ``module`` is the best-effort dotted module name derived from the
    path (``src/repro/core/engine.py`` → ``repro.core.engine``); rules
    use it for scoping decisions, so files outside a recognisable
    package root simply fall outside package-scoped rules.
    """

    path: str
    module: str
    text: str
    lines: list[str]
    tree: ast.Module
    #: Local names bound to the ``numpy`` module (``numpy``, ``np``, …).
    numpy_aliases: set[str] = field(default_factory=set)
    #: Local names bound to the stdlib ``random`` module.
    random_aliases: set[str] = field(default_factory=set)
    #: Local names bound to the stdlib ``math`` module.
    math_aliases: set[str] = field(default_factory=set)
    #: Local names bound to the stdlib ``time`` module.
    time_aliases: set[str] = field(default_factory=set)
    #: Local names bound to the stdlib ``sys`` module.
    sys_aliases: set[str] = field(default_factory=set)

    def in_package(self, prefix: str) -> bool:
        """True when the module lives in ``prefix`` (dotted, inclusive)."""
        return self.module == prefix or self.module.startswith(prefix + ".")

    def source_line(self, lineno: int) -> str:
        """The stripped source text of a 1-based line (``""`` off-range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def violation(
        self,
        rule: Rule,
        node: ast.AST | int,
        message: str,
    ) -> Violation:
        """Build a violation for ``node`` (an AST node or a line number)."""
        if isinstance(node, int):
            line, column = node, 0
        else:
            line = getattr(node, "lineno", 1)
            column = getattr(node, "col_offset", 0)
        return Violation(
            rule=rule.code,
            path=self.path,
            line=line,
            column=column,
            message=message,
            severity=rule.severity,
            snippet=self.source_line(line),
        )


def _module_name(path: Path) -> str:
    """Best-effort dotted module name for scoping decisions.

    Prefers the part of the path after a ``src`` directory; otherwise
    falls back to the part starting at a ``repro`` or ``tests``
    component. Unrecognisable layouts yield the bare stem, which places
    the file outside every package-scoped rule.
    """
    parts = list(path.parts)
    parts[-1] = path.stem
    for anchor in ("src",):
        if anchor in parts[:-1]:
            tail = parts[parts.index(anchor) + 1 :]
            if tail:
                return ".".join(p for p in tail if p != "__init__")
    for root in ("repro", "tests"):
        if root in parts:
            tail = parts[parts.index(root) :]
            return ".".join(p for p in tail if p != "__init__")
    return path.stem


def _collect_import_aliases(context: ModuleContext) -> None:
    """Record which local names refer to numpy / random / math / time / sys."""
    targets = {
        "numpy": context.numpy_aliases,
        "random": context.random_aliases,
        "math": context.math_aliases,
        "time": context.time_aliases,
        "sys": context.sys_aliases,
    }
    for node in ast.walk(context.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bucket = targets.get(alias.name)
                if bucket is not None:
                    bucket.add(alias.asname or alias.name)


def build_context(path: str, text: str) -> ModuleContext:
    """Parse ``text`` into a :class:`ModuleContext` (raises ``SyntaxError``)."""
    tree = ast.parse(text, filename=path)
    context = ModuleContext(
        path=path,
        module=_module_name(Path(path)),
        text=text,
        lines=text.splitlines(),
        tree=tree,
    )
    _collect_import_aliases(context)
    return context


def _suppressions(text: str) -> dict[int, set[str]]:
    """``{line_number: {codes}}`` for every ``# noqa: SWP###`` comment.

    Tokenizes rather than greps, so ``# noqa`` *text inside a string or
    docstring* (this project documents its own suppression syntax) never
    counts as a real suppression.
    """
    found: dict[int, set[str]] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return found  # the AST parse already reported the file as broken
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _NOQA_PATTERN.search(token.string)
        if match is not None:
            codes = {c.strip().upper() for c in match.group("codes").split(",")}
            found.setdefault(token.start[0], set()).update(codes)
    return found


@dataclass
class AnalysisReport:
    """Outcome of one analysis run over one or more files."""

    violations: list[Violation] = field(default_factory=list)
    #: Violations silenced by a ``# noqa`` comment (kept for reporting).
    suppressed: list[Violation] = field(default_factory=list)
    checked_files: int = 0
    #: Files that could not be parsed: ``(path, message)``.
    parse_errors: list[tuple[str, str]] = field(default_factory=list)

    def extend(self, other: "AnalysisReport") -> None:
        self.violations.extend(other.violations)
        self.suppressed.extend(other.suppressed)
        self.checked_files += other.checked_files
        self.parse_errors.extend(other.parse_errors)

    def counts(self) -> dict[str, int]:
        """``{rule_code: violation_count}`` over the unsuppressed findings."""
        out: dict[str, int] = {}
        for violation in self.violations:
            out[violation.rule] = out.get(violation.rule, 0) + 1
        return dict(sorted(out.items()))

    def has_errors(self) -> bool:
        return bool(self.parse_errors) or any(
            v.severity is Severity.ERROR for v in self.violations
        )

    def has_warnings(self) -> bool:
        return any(v.severity is Severity.WARNING for v in self.violations)


_UNUSED_RULE = Rule(
    code=UNUSED_SUPPRESSION,
    name="unused-suppression",
    severity=Severity.WARNING,
    summary="a # noqa: SWP### comment suppresses nothing on its line",
    check=lambda context: (),
    scope="anywhere",
)


def _resolve_suppressions(
    context: ModuleContext,
    raw: list[Violation],
    *,
    ran: set[str],
    report_unused: bool,
    report: AnalysisReport,
) -> None:
    """Route raw findings through ``# noqa`` comments into ``report``.

    The contract: a suppression silences only its own line and rule;
    a suppression naming a selected rule that did not fire is stale
    (``SWP000``); a suppression naming a rule code that does not exist
    at all — a typo, or a rule that was deleted — is also ``SWP000``,
    judgeable regardless of ``--select`` because no narrowing can make
    a nonexistent rule fire.
    """
    suppressions = _suppressions(context.text)
    fired_by_line: dict[int, set[str]] = {}
    for violation in raw:
        codes = suppressions.get(violation.line, set())
        fired_by_line.setdefault(violation.line, set()).add(violation.rule)
        if violation.rule in codes:
            report.suppressed.append(violation)
        else:
            report.violations.append(violation)
    if not report_unused:
        return
    for line, codes in sorted(suppressions.items()):
        for code in sorted(codes):
            if code != UNUSED_SUPPRESSION and code not in RULES:
                report.violations.append(
                    context.violation(
                        _UNUSED_RULE,
                        line,
                        f"suppression names unknown rule {code}: no such"
                        " rule is registered; delete or fix the # noqa",
                    )
                )
                continue
            if code not in ran:
                continue  # rule not selected: cannot judge staleness
            if code not in fired_by_line.get(line, set()):
                report.violations.append(
                    context.violation(
                        _UNUSED_RULE,
                        line,
                        f"unused suppression: {code} never fires on this"
                        " line; delete the # noqa",
                    )
                )


def analyze_source(
    path: str,
    text: str,
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    report_unused: bool = True,
) -> AnalysisReport:
    """Run the (narrowed) per-module rule set over one in-memory module.

    Unused-suppression detection only considers codes belonging to rules
    that actually ran: narrowing with ``--select`` must not mark the
    other rules' suppressions as stale.
    """
    report = AnalysisReport(checked_files=1)
    try:
        context = build_context(path, text)
    except SyntaxError as exc:
        report.parse_errors.append((path, f"syntax error: {exc.msg} (line {exc.lineno})"))
        return report
    rules = iter_rules(select, ignore)
    raw: list[Violation] = []
    for active_rule in rules:
        raw.extend(active_rule.check(context))
    _resolve_suppressions(
        context,
        raw,
        ran={r.code for r in rules},
        report_unused=report_unused,
        report=report,
    )
    return report


def analyze_file(
    path: Path,
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    report_unused: bool = True,
    display_root: Path | None = None,
) -> AnalysisReport:
    """Analyse one file on disk; paths in findings are root-relative."""
    display = path
    if display_root is not None:
        try:
            display = path.resolve().relative_to(display_root.resolve())
        except ValueError:
            display = path
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        report = AnalysisReport(checked_files=1)
        report.parse_errors.append((display.as_posix(), f"unreadable: {exc}"))
        return report
    return analyze_source(
        display.as_posix(),
        text,
        select=select,
        ignore=ignore,
        report_unused=report_unused,
    )


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list."""
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates = sorted(
                p
                for p in path.rglob("*.py")
                if not (_SKIP_DIRS & set(p.parts))
            )
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def analyze_paths(
    paths: Sequence[Path],
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    report_unused: bool = True,
    display_root: Path | None = None,
) -> AnalysisReport:
    """Analyse every ``.py`` file under ``paths`` into one report."""
    # Touch the registry so an empty-registry misconfiguration fails loudly
    # rather than silently passing every tree.
    if not RULES:  # pragma: no cover - guarded by package __init__ imports
        raise AnalysisError("no analysis rules registered; import repro.analysis")
    combined = AnalysisReport()
    for file_path in iter_python_files(paths):
        combined.extend(
            analyze_file(
                file_path,
                select=select,
                ignore=ignore,
                report_unused=report_unused,
                display_root=display_root,
            )
        )
    combined.violations.sort(key=lambda v: (v.path, v.line, v.column, v.rule))
    return combined
