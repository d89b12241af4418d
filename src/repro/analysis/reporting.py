"""Text, JSON, and SARIF reporters for analysis runs.

The text reporter is what CI logs show; the JSON reporter is a stable
machine-readable contract (violations, counts, and exit metadata) for
tooling built on top of the pass; the SARIF 2.1.0 reporter feeds GitHub
code scanning so whole-program findings annotate pull requests.
"""

from __future__ import annotations

import json

from repro.analysis.checker import AnalysisReport
from repro.analysis.rules import RULES, Severity, Violation

__all__ = ["render_json", "render_sarif", "render_text"]


def render_text(report: AnalysisReport, *, verbose_suppressed: bool = False) -> str:
    """Human-readable rendering: one line per finding plus a summary."""
    lines: list[str] = []
    for path, message in report.parse_errors:
        lines.append(f"{path}:1:0: PARSE [error] {message}")
    for violation in report.violations:
        lines.append(violation.format_text())
    if verbose_suppressed:
        for violation in report.suppressed:
            lines.append(f"{violation.format_text()} (suppressed by noqa)")
    summary = [f"{report.checked_files} files checked"]
    counts = report.counts()
    if counts:
        summary.append(
            ", ".join(f"{code}: {count}" for code, count in counts.items())
        )
        summary.append(f"{len(report.violations)} violations")
    else:
        summary.append("no violations")
    if report.suppressed:
        summary.append(f"{len(report.suppressed)} suppressed")
    if report.parse_errors:
        summary.append(f"{len(report.parse_errors)} parse errors")
    lines.append(" — ".join(summary))
    return "\n".join(lines)


def render_json(report: AnalysisReport) -> str:
    """Machine-readable rendering of the full run outcome."""
    payload = {
        "checked_files": report.checked_files,
        "violations": [v.as_dict() for v in report.violations],
        "suppressed": [v.as_dict() for v in report.suppressed],
        "parse_errors": [
            {"path": path, "message": message}
            for path, message in report.parse_errors
        ],
        "counts": report.counts(),
    }
    return json.dumps(payload, indent=2)


_SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: SARIF levels for our severities (parse failures map to "error" too).
_SARIF_LEVELS = {Severity.ERROR: "error", Severity.WARNING: "warning"}


def _sarif_rules() -> list[dict[str, object]]:
    """The driver's rule metadata: every registered rule + pseudo-codes."""
    descriptors: list[dict[str, object]] = []
    for code, registered in sorted(RULES.items()):
        descriptors.append(
            {
                "id": code,
                "name": registered.name,
                "shortDescription": {"text": registered.summary},
                "defaultConfiguration": {
                    "level": _SARIF_LEVELS[registered.severity]
                },
                "properties": {"scope": registered.scope},
            }
        )
    descriptors.append(
        {
            "id": "SWP000",
            "name": "unused-suppression",
            "shortDescription": {
                "text": "a # noqa comment suppresses nothing, or names an"
                " unknown rule"
            },
            "defaultConfiguration": {"level": "warning"},
        }
    )
    descriptors.append(
        {
            "id": "PARSE",
            "name": "parse-error",
            "shortDescription": {"text": "the file could not be parsed"},
            "defaultConfiguration": {"level": "error"},
        }
    )
    return descriptors


def _sarif_result(violation: Violation) -> dict[str, object]:
    return {
        "ruleId": violation.rule,
        "level": _SARIF_LEVELS[violation.severity],
        "message": {"text": violation.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": violation.path,
                        "uriBaseId": "%SRCROOT%",
                    },
                    "region": {
                        "startLine": max(violation.line, 1),
                        # SARIF columns are 1-based; ours are 0-based.
                        "startColumn": max(violation.column + 1, 1),
                    },
                }
            }
        ],
        # The violation fingerprint is the stable result identity GitHub
        # uses to track alerts across pushes.
        "partialFingerprints": {"swopeFingerprint/v1": violation.fingerprint},
    }


def render_sarif(report: AnalysisReport) -> str:
    """SARIF 2.1.0 rendering for GitHub code-scanning upload.

    Suppressed findings are deliberately omitted — an alert that a
    human already justified must not reopen on every push.
    Parse errors become ``PARSE``-rule results so a broken file is
    visible in the same place as the findings it hides.
    """
    results = [_sarif_result(v) for v in report.violations]
    for path, message in report.parse_errors:
        results.append(
            {
                "ruleId": "PARSE",
                "level": "error",
                "message": {"text": message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": path,
                                "uriBaseId": "%SRCROOT%",
                            },
                            "region": {"startLine": 1, "startColumn": 1},
                        }
                    }
                ],
                "partialFingerprints": {
                    "swopeFingerprint/v1": f"{path}::PARSE::{message}"
                },
            }
        )
    payload = {
        "$schema": _SARIF_SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro.analysis",
                        "version": "1.0.0",
                        "rules": _sarif_rules(),
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=2)
