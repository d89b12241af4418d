"""SWOPE-aware static analysis: machine-checked repository invariants.

The correctness of this reproduction rests on invariants the test suite
can only spot-check — every entropy expression must be base-2 (Lemmas
1–3 are stated in bits), every sampling path must draw from a seeded
:class:`numpy.random.Generator`, every adaptive loop must honour the
``QueryBudget``/``CancellationToken`` contract, and every intentional
error must derive from the :mod:`repro.exceptions` hierarchy. This
package encodes those invariants as per-module AST lint rules
(``SWP001``–``SWP012``, ``SWP017``, ``SWP018``) plus whole-program
analyses over the project call graph (``SWP013``, ``SWP014``,
``SWP016``) and runs them over the tree:

    python -m repro.analysis src/ tests/
    python -m repro.analysis --project src/ tests/

Structure
---------
* :mod:`repro.analysis.rules` — the rule framework: :class:`Violation`,
  :class:`Rule`, the ``SWP###`` registry, and severities.
* :mod:`repro.analysis.checks` — the concrete per-module SWOPE rules.
* :mod:`repro.analysis.graph` — project-wide import/call graph built
  from per-module summaries.
* :mod:`repro.analysis.flow` — intra-procedural determinism-taint
  analysis feeding the graph summaries.
* :mod:`repro.analysis.project` — the :class:`ProjectContext` handed to
  whole-program rules, including the entry-point contract.
* :mod:`repro.analysis.checks_project` — the whole-program rules
  (determinism taint, budget reachability, exception contract).
* :mod:`repro.analysis.checker` — parses files, applies rules, and
  resolves ``# noqa: SWP###`` suppressions (including unused- and
  unknown-suppression detection, reported as ``SWP000``).
* :mod:`repro.analysis.reporting` — text, JSON, and SARIF reporters.
* :mod:`repro.analysis.cli` — the ``python -m repro.analysis`` entry
  point.

See ``docs/ANALYSIS.md`` for what each rule catches and why the
invariant matters.
"""

from __future__ import annotations

from repro.analysis.checker import (
    AnalysisReport,
    ModuleContext,
    analyze_paths,
    analyze_project,
    analyze_source,
)
from repro.analysis.rules import RULES, Rule, Severity, Violation, all_codes

# Importing the concrete checks registers them with the RULES registry.
from repro.analysis import checks as _checks  # noqa: F401
from repro.analysis import checks_project as _checks_project  # noqa: F401
from repro.analysis.graph import ModuleSummary, ProjectGraph, extract_module
from repro.analysis.project import ProjectContext

__all__ = [
    "AnalysisReport",
    "ModuleContext",
    "ModuleSummary",
    "ProjectContext",
    "ProjectGraph",
    "RULES",
    "Rule",
    "Severity",
    "Violation",
    "all_codes",
    "analyze_paths",
    "analyze_project",
    "analyze_source",
    "extract_module",
]
