"""``python -m repro.analysis`` — run the SWOPE lint rules over a tree.

Exit status contract (what CI gates on):

* ``0`` — no unsuppressed error-severity violations (warnings allowed
  unless ``--fail-on-warning``);
* ``1`` — at least one unsuppressed error-severity violation, a parse
  failure, or (with ``--fail-on-warning``) any warning;
* ``2`` — usage error (unknown flag or rule code, missing path).

Typical invocations::

    python -m repro.analysis src/ tests/
    python -m repro.analysis src/ --select SWP002,SWP008 --format json
    python -m repro.analysis --project src/ scripts/
    python -m repro.analysis --project --format sarif src/
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis import checks as _checks  # noqa: F401 - registers rules
from repro.analysis import checks_project as _checks_project  # noqa: F401
from repro.analysis.checker import AnalysisReport, analyze_paths, analyze_project
from repro.analysis.reporting import render_json, render_sarif, render_text
from repro.analysis.rules import RULES
from repro.exceptions import AnalysisError

__all__ = ["build_parser", "main"]


def _parse_codes(raw: str) -> list[str]:
    return [code.strip().upper() for code in raw.split(",") if code.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="SWOPE-aware static analysis (rules SWP001-SWP018).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyse (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--project",
        action="store_true",
        help="whole-program mode: build the cross-module call graph and run"
        " the project rules (SWP013, SWP014, SWP016) as well",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--fail-on-warning",
        action="store_true",
        help="exit 1 on warning-severity findings too",
    )
    parser.add_argument(
        "--no-unused-suppressions",
        action="store_true",
        help="do not report stale # noqa comments (SWP000)",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also list violations silenced by # noqa (text format)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule registry and exit",
    )
    return parser


def _list_rules() -> str:
    lines = []
    for code, registered in sorted(RULES.items()):
        lines.append(
            f"{code} {registered.name} [{registered.severity}]"
            f" — {registered.summary} (scope: {registered.scope})"
        )
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        print(_list_rules())
        return 0
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        select = _parse_codes(args.select) if args.select else None
        ignore = _parse_codes(args.ignore) if args.ignore else None
        report_unused = not args.no_unused_suppressions
        if args.project:
            report: AnalysisReport = analyze_project(
                [Path(p) for p in args.paths],
                select=select,
                ignore=ignore,
                report_unused=report_unused,
                display_root=Path.cwd(),
            )
        else:
            report = analyze_paths(
                [Path(p) for p in args.paths],
                select=select,
                ignore=ignore,
                report_unused=report_unused,
                display_root=Path.cwd(),
            )
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "sarif":
        print(render_sarif(report))
    elif args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report, verbose_suppressed=args.show_suppressed))
    if report.has_errors():
        return 1
    if args.fail_on_warning and report.has_warnings():
        return 1
    return 0
