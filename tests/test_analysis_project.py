"""Tests for the whole-program analysis engine.

Covers the graph layer (name resolution across aliased imports,
``self``-method calls, ``__init__`` re-exports), the project rules
SWP014 and SWP016 with positive and negative fixtures (matching the
per-module fixture pattern in ``tests/test_analysis.py``), project mode
running the per-module rules and judging project-rule suppressions, the
SARIF reporter, and the live tree staying clean in ``--project`` mode.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.analysis import analyze_project, analyze_source
from repro.analysis.checker import build_context
from repro.analysis.graph import ProjectGraph, extract_module
from repro.analysis.reporting import render_sarif
from repro.analysis.rules import Severity

REPO_ROOT = Path(__file__).resolve().parent.parent


def codes(report) -> list[str]:
    return sorted(v.rule for v in report.violations)


def write_tree(root: Path, files: dict[str, str]) -> None:
    for rel, text in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text), encoding="utf-8")


def run_project(tmp_path: Path, files: dict[str, str], **kwargs):
    write_tree(tmp_path, files)
    return analyze_project(
        [tmp_path / "src"], display_root=tmp_path, **kwargs
    )


def graph_of(files: dict[str, str]) -> ProjectGraph:
    """Build a ProjectGraph from in-memory sources (path → text)."""
    summaries = []
    for path, text in files.items():
        context = build_context(path, textwrap.dedent(text))
        summaries.append(extract_module(context))
    return ProjectGraph(summaries)


# ----------------------------------------------------------------------
# Graph layer: name resolution
# ----------------------------------------------------------------------
class TestResolution:
    def test_aliased_import_resolves(self):
        graph = graph_of(
            {
                "src/repro/a.py": "def helper():\n    return 1\n",
                "src/repro/b.py": (
                    "from repro.a import helper as h\n"
                    "def caller():\n"
                    "    return h()\n"
                ),
            }
        )
        edges = graph.edges()
        assert "repro.a:helper" in edges["repro.b:caller"]

    def test_module_alias_import_resolves(self):
        graph = graph_of(
            {
                "src/repro/a.py": "def helper():\n    return 1\n",
                "src/repro/b.py": (
                    "import repro.a as ra\n"
                    "def caller():\n"
                    "    return ra.helper()\n"
                ),
            }
        )
        assert "repro.a:helper" in graph.edges()["repro.b:caller"]

    def test_self_method_call_resolves(self):
        graph = graph_of(
            {
                "src/repro/c.py": (
                    "class Engine:\n"
                    "    def run(self):\n"
                    "        return self._step()\n"
                    "    def _step(self):\n"
                    "        return 0\n"
                ),
            }
        )
        assert "repro.c:Engine._step" in graph.edges()["repro.c:Engine.run"]

    def test_self_method_through_base_class(self):
        graph = graph_of(
            {
                "src/repro/base.py": (
                    "class Base:\n"
                    "    def shared(self):\n"
                    "        return 0\n"
                ),
                "src/repro/child.py": (
                    "from repro.base import Base\n"
                    "class Child(Base):\n"
                    "    def run(self):\n"
                    "        return self.shared()\n"
                ),
            }
        )
        assert "repro.base:Base.shared" in graph.edges()["repro.child:Child.run"]

    def test_reexport_via_init_resolves(self):
        graph = graph_of(
            {
                "src/repro/pkg/__init__.py": "from repro.pkg.impl import thing\n",
                "src/repro/pkg/impl.py": "def thing():\n    return 1\n",
                "src/repro/user.py": (
                    "from repro.pkg import thing\n"
                    "def caller():\n"
                    "    return thing()\n"
                ),
            }
        )
        assert "repro.pkg.impl:thing" in graph.edges()["repro.user:caller"]

    def test_relative_import_inside_package(self):
        graph = graph_of(
            {
                "src/repro/pkg/__init__.py": "",
                "src/repro/pkg/impl.py": "def thing():\n    return 1\n",
                "src/repro/pkg/user.py": (
                    "from .impl import thing\n"
                    "def caller():\n"
                    "    return thing()\n"
                ),
            }
        )
        assert "repro.pkg.impl:thing" in graph.edges()["repro.pkg.user:caller"]

    def test_class_call_resolves_to_init(self):
        graph = graph_of(
            {
                "src/repro/d.py": (
                    "class Widget:\n"
                    "    def __init__(self):\n"
                    "        self.x = 1\n"
                    "def make():\n"
                    "    return Widget()\n"
                ),
            }
        )
        assert "repro.d:Widget.__init__" in graph.edges()["repro.d:make"]

    def test_unresolvable_local_method_has_no_edge(self):
        graph = graph_of(
            {
                "src/repro/e.py": (
                    "def caller(ctx):\n"
                    "    return ctx.finish()\n"
                ),
            }
        )
        assert graph.edges()["repro.e:caller"] == set()

    def test_reachability_reports_first_root(self):
        graph = graph_of(
            {
                "src/repro/f.py": (
                    "def swope_entry():\n"
                    "    return inner()\n"
                    "def inner():\n"
                    "    return leaf()\n"
                    "def leaf():\n"
                    "    return 0\n"
                ),
            }
        )
        origin = graph.reachable(["repro.f:swope_entry"])
        assert origin["repro.f:leaf"] == "repro.f:swope_entry"


# ----------------------------------------------------------------------
# SWP014 — budget reachability
# ----------------------------------------------------------------------
class TestSWP014:
    def test_unchecked_adaptive_loop_reachable_from_entry_fires(self, tmp_path):
        report = run_project(
            tmp_path,
            {
                "src/repro/api.py": (
                    "from repro.inner import drive\n"
                    "def swope_entropy(schedule):\n"
                    "    return drive(schedule)\n"
                ),
                "src/repro/inner.py": (
                    "def drive(schedule):\n"
                    "    total = 0\n"
                    "    for n in schedule.sizes:\n"
                    "        total += n\n"
                    "    return total\n"
                ),
            },
        )
        assert "SWP014" in codes(report)
        [violation] = [v for v in report.violations if v.rule == "SWP014"]
        assert "swope_entropy" in violation.message
        assert violation.path == "src/repro/inner.py"

    def test_checked_loop_is_clean(self, tmp_path):
        report = run_project(
            tmp_path,
            {
                "src/repro/api.py": (
                    "from repro.inner import drive\n"
                    "def swope_entropy(schedule, budget):\n"
                    "    return drive(schedule, budget)\n"
                ),
                "src/repro/inner.py": (
                    "from repro.budget import check_interruption\n"
                    "def drive(schedule, budget):\n"
                    "    total = 0\n"
                    "    for n in schedule.sizes:\n"
                    "        check_interruption(budget)\n"
                    "        total += n\n"
                    "    return total\n"
                ),
                "src/repro/budget.py": (
                    "def check_interruption(budget):\n"
                    "    return budget\n"
                ),
            },
        )
        assert "SWP014" not in codes(report)

    def test_unreachable_loop_is_clean(self, tmp_path):
        # Same loop, but nothing public reaches it: out of contract.
        report = run_project(
            tmp_path,
            {
                "src/repro/inner.py": (
                    "def _private_drive(schedule):\n"
                    "    total = 0\n"
                    "    for n in schedule.sizes:\n"
                    "        total += n\n"
                    "    return total\n"
                ),
            },
        )
        assert "SWP014" not in codes(report)


# ----------------------------------------------------------------------
# SWP016 — exception contract
# ----------------------------------------------------------------------
_EXC = (
    "class ReproError(Exception):\n"
    "    pass\n"
    "class ParameterError(ReproError, ValueError):\n"
    "    pass\n"
)


class TestSWP016:
    def test_builtin_raise_reachable_from_entry_fires(self, tmp_path):
        report = run_project(
            tmp_path,
            {
                "src/repro/exceptions.py": _EXC,
                "src/repro/api.py": (
                    "from repro.inner import validate\n"
                    "def swope_entropy(n):\n"
                    "    return validate(n)\n"
                ),
                "src/repro/inner.py": (
                    "def validate(n):\n"
                    "    if n < 0:\n"
                    "        raise ValueError('negative')\n"
                    "    return n\n"
                ),
            },
        )
        assert "SWP016" in codes(report)

    def test_taxonomy_exception_is_clean(self, tmp_path):
        report = run_project(
            tmp_path,
            {
                "src/repro/exceptions.py": _EXC,
                "src/repro/api.py": (
                    "from repro.exceptions import ParameterError\n"
                    "from repro.inner import validate\n"
                    "def swope_entropy(n):\n"
                    "    return validate(n)\n"
                ),
                "src/repro/inner.py": (
                    "from repro.exceptions import ParameterError\n"
                    "def validate(n):\n"
                    "    if n < 0:\n"
                    "        raise ParameterError('negative')\n"
                    "    return n\n"
                ),
            },
        )
        assert "SWP016" not in codes(report)

    def test_subclass_of_taxonomy_in_other_module_is_clean(self, tmp_path):
        report = run_project(
            tmp_path,
            {
                "src/repro/exceptions.py": _EXC,
                "src/repro/api.py": (
                    "from repro.exceptions import ReproError\n"
                    "class LocalError(ReproError):\n"
                    "    pass\n"
                    "def swope_entropy(n):\n"
                    "    if n < 0:\n"
                    "        raise LocalError('negative')\n"
                    "    return n\n"
                ),
            },
        )
        assert "SWP016" not in codes(report)

    def test_unreachable_builtin_raise_is_clean(self, tmp_path):
        report = run_project(
            tmp_path,
            {
                "src/repro/exceptions.py": _EXC,
                "src/repro/inner.py": (
                    "def _helper(n):\n"
                    "    raise ValueError('never reached from an entry')\n"
                ),
            },
        )
        assert "SWP016" not in codes(report)

    def test_not_implemented_error_is_allowed(self, tmp_path):
        report = run_project(
            tmp_path,
            {
                "src/repro/exceptions.py": _EXC,
                "src/repro/api.py": (
                    "def swope_entropy(n):\n"
                    "    raise NotImplementedError\n"
                ),
            },
        )
        assert "SWP016" not in codes(report)


# ----------------------------------------------------------------------
# Project mode runs the per-module rules too
# ----------------------------------------------------------------------
class TestProjectMode:
    def test_project_run_reports_module_violations(self, tmp_path):
        report = run_project(
            tmp_path,
            {
                "src/repro/core/old.py": (
                    "import time\n"
                    "def stamp():\n"
                    "    return time.time()\n"
                ),
            },
        )
        assert "SWP008" in codes(report)

    def test_noqa_suppresses_and_is_tracked(self, tmp_path):
        report = run_project(
            tmp_path,
            {
                "src/repro/exceptions.py": _EXC,
                "src/repro/api.py": (
                    "def swope_entropy(n):\n"
                    "    raise ValueError('negative')  # noqa: SWP016\n"
                ),
            },
        )
        assert "SWP016" not in codes(report)
        assert any(v.rule == "SWP016" for v in report.suppressed)

    def test_stale_project_suppression_reported(self, tmp_path):
        report = run_project(
            tmp_path,
            {
                "src/repro/core/engine.py": (
                    "def emit(sink):\n"
                    "    sink(1)  # noqa: SWP016\n"
                ),
            },
        )
        assert "SWP000" in codes(report)


# ----------------------------------------------------------------------
# SARIF output
# ----------------------------------------------------------------------
class TestSarif:
    def test_sarif_shape_and_fingerprints(self):
        report = analyze_source(
            "src/repro/core/example.py",
            "import time\ndef f():\n    return time.time()\n",
        )
        assert codes(report) == ["SWP008"]
        payload = json.loads(render_sarif(report))
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"SWP001", "SWP014", "SWP016", "SWP000", "PARSE"} <= rule_ids
        [result] = run["results"]
        assert result["ruleId"] == "SWP008"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/core/example.py"
        assert location["region"]["startLine"] == 3
        assert location["region"]["startColumn"] >= 1
        fingerprint = result["partialFingerprints"]["swopeFingerprint/v1"]
        assert fingerprint == report.violations[0].fingerprint

    def test_parse_errors_become_results(self):
        report = analyze_source("src/repro/broken.py", "def f(:\n")
        payload = json.loads(render_sarif(report))
        [result] = payload["runs"][0]["results"]
        assert result["ruleId"] == "PARSE"
        assert result["level"] == "error"


# ----------------------------------------------------------------------
# Live tree + CLI integration
# ----------------------------------------------------------------------
class TestLiveTreeProject:
    def test_live_tree_is_project_clean(self):
        report = analyze_project(
            [REPO_ROOT / "src", REPO_ROOT / "scripts"],
            display_root=REPO_ROOT,
        )
        findings = "\n".join(v.format_text() for v in report.violations)
        assert not report.violations, f"project-analysis violations:\n{findings}"
        assert not report.parse_errors

    def test_cli_sarif_output_parses(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.analysis",
                "--project",
                "--format",
                "sarif",
                "src",
            ],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["runs"][0]["results"] == []

    def test_every_error_severity_project_rule(self):
        from repro.analysis.rules import RULES

        for code in ("SWP014", "SWP016"):
            assert RULES[code].severity is Severity.ERROR
