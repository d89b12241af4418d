"""Rule framework for the SWOPE static-analysis pass.

A *rule* is a named, registered check with a stable ``SWP###`` code, a
default severity, and a callable that inspects one parsed module and
yields :class:`Violation` objects. Rules register themselves with the
module-level :data:`RULES` registry via the :func:`rule` decorator; the
checker iterates the registry (optionally narrowed by ``--select`` /
``--ignore``) and applies every rule to every file.

Severities
----------
``ERROR`` violations gate CI (non-zero exit); ``WARNING`` violations are
reported but only fail the run under ``--fail-on-warning``. The special
pseudo-code ``SWP000`` (unused ``# noqa`` suppression) is emitted by the
checker itself, not by a registered rule.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from repro.exceptions import AnalysisError, ParameterError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.analysis.checker import ModuleContext

__all__ = [
    "RULES",
    "Rule",
    "RuleCheck",
    "Severity",
    "UNUSED_SUPPRESSION",
    "Violation",
    "all_codes",
    "get_rule",
    "iter_rules",
    "rule",
]

#: Pseudo-code under which the checker reports unused suppressions.
UNUSED_SUPPRESSION = "SWP000"


class Severity(enum.Enum):
    """How a violation affects the exit status of an analysis run."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Violation:
    """One finding: a rule fired at a position in a file.

    ``snippet`` holds the stripped source line, which doubles as the
    position-drift-tolerant component of :attr:`fingerprint`.
    """

    rule: str
    path: str
    line: int
    column: int
    message: str
    severity: Severity
    snippet: str = ""

    @property
    def fingerprint(self) -> str:
        """Stable identity of a finding (SARIF ``partialFingerprints``).

        Deliberately excludes the line *number* so that unrelated edits
        above a finding do not make it a new alert; includes the
        stripped line *text* so that the finding's own statement
        changing does.
        """
        return f"{self.path}::{self.rule}::{self.snippet}"

    def format_text(self) -> str:
        """The one-line human-readable rendering used by the text reporter."""
        return (
            f"{self.path}:{self.line}:{self.column}:"
            f" {self.rule} [{self.severity}] {self.message}"
        )

    def as_dict(self) -> dict[str, object]:
        """JSON-reporter payload."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "severity": str(self.severity),
            "message": self.message,
            "snippet": self.snippet,
        }


RuleCheck = Callable[["ModuleContext"], Iterable[Violation]]


@dataclass(frozen=True)
class Rule:
    """A registered check: stable code, severity, scope note, callable.

    ``check`` receives a :class:`~repro.analysis.checker.ModuleContext`
    and runs on every analysed file.
    """

    code: str
    name: str
    severity: Severity
    summary: str
    check: RuleCheck
    #: Human-readable scope note shown by ``--list-rules`` (the check
    #: itself enforces its scope; this is documentation).
    scope: str = "src/repro"


#: The global rule registry, keyed by ``SWP###`` code, insertion-ordered.
RULES: dict[str, Rule] = {}


def rule(
    code: str,
    name: str,
    *,
    severity: Severity = Severity.ERROR,
    summary: str,
    scope: str = "src/repro",
) -> Callable[[RuleCheck], RuleCheck]:
    """Class/function decorator registering a check under ``code``.

    The decorated callable receives a
    :class:`~repro.analysis.checker.ModuleContext` and yields
    :class:`Violation` objects. Registration is idempotent per process
    but re-registering an existing code is a programming error.
    """
    if not (code.startswith("SWP") and code[3:].isdigit() and len(code) == 6):
        raise ParameterError(f"rule codes look like SWP###, got {code!r}")

    def decorate(check: RuleCheck) -> RuleCheck:
        if code in RULES:
            raise ParameterError(f"duplicate rule code {code}")
        RULES[code] = Rule(
            code=code,
            name=name,
            severity=severity,
            summary=summary,
            check=check,
            scope=scope,
        )
        return check

    return decorate


def all_codes() -> list[str]:
    """Every registered rule code, sorted."""
    return sorted(RULES)


def get_rule(code: str) -> Rule:
    """Look up one rule; unknown codes raise :class:`AnalysisError`."""
    try:
        return RULES[code]
    except KeyError:
        raise AnalysisError(
            f"unknown rule {code!r}; known rules: {', '.join(all_codes())}"
        ) from None


def iter_rules(
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> list[Rule]:
    """The registry narrowed by ``--select`` / ``--ignore`` code sets."""
    selected = set(select) if select is not None else set(RULES)
    ignored = set(ignore) if ignore is not None else set()
    for code in selected | ignored:
        if code != UNUSED_SUPPRESSION and code not in RULES:
            raise AnalysisError(
                f"unknown rule {code!r}; known rules: {', '.join(all_codes())}"
            )
    return [
        r for code, r in RULES.items() if code in selected and code not in ignored
    ]
