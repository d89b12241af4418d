"""Tests for :mod:`repro.analysis` — the SWOPE static-analysis pass.

Three layers:

* per-rule fixtures: each rule fires on a minimal known-bad module and
  stays silent on the matching known-good one;
* framework behaviour: ``# noqa`` suppression, unused-suppression
  reporting (SWP000), ``--select`` interplay, reporter output, CLI exit
  codes;
* the live tree: the repository's own ``src/``, ``tests/``,
  ``scripts/``, ``benchmarks/``, ``examples/`` and ``perfbench/`` must
  be violation-free (the CI gate, asserted in-process).
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import analyze_paths, analyze_source
from repro.analysis.cli import main
from repro.analysis.reporting import render_json, render_sarif, render_text
from repro.analysis.rules import RULES, UNUSED_SUPPRESSION, Severity, all_codes

REPO_ROOT = Path(__file__).resolve().parent.parent

CORE = "src/repro/core/example.py"
BASELINES = "src/repro/baselines/example.py"
ENGINE = "src/repro/core/engine.py"


def codes(report) -> list[str]:
    return [v.rule for v in report.violations]


def check(path: str, text: str, **kwargs):
    return analyze_source(path, text, **kwargs)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_fourteen_rules_registered(self):
        # SWP013 to SWP016 are retired and unassigned.
        assert all_codes() == [
            f"SWP{i:03d}" for i in range(1, 19) if i not in (13, 14, 15, 16)
        ]

    def test_unused_suppression_code_reserved(self):
        assert UNUSED_SUPPRESSION == "SWP000"
        assert UNUSED_SUPPRESSION not in RULES

    def test_every_rule_has_summary_and_scope(self):
        for rule in RULES.values():
            assert rule.summary
            assert rule.scope


# ----------------------------------------------------------------------
# SWP001 — base-2 logs in repro.core
# ----------------------------------------------------------------------
class TestSWP001:
    def test_math_log_fires_in_core(self):
        report = check(CORE, "import math\n\ndef f(p):\n    return math.log(p)\n")
        assert codes(report) == ["SWP001"]

    def test_np_log_fires_in_core(self):
        report = check(CORE, "import numpy as np\n\ndef f(p):\n    return np.log(p)\n")
        assert codes(report) == ["SWP001"]

    def test_log2_is_clean(self):
        text = "import math\nimport numpy as np\n\ndef f(p):\n    return math.log2(p) + np.log2(p)\n"
        assert codes(check(CORE, text)) == []

    def test_ln2_unit_constant_allowed(self):
        assert codes(check(CORE, "import math\nLN2 = math.log(2.0)\n")) == []

    def test_explicit_base_two_allowed(self):
        assert codes(check(CORE, "import math\n\ndef f(p):\n    return math.log(p, 2)\n")) == []

    def test_out_of_scope_module_is_clean(self):
        report = check("src/repro/synth/example.py", "import math\n\ndef f(p):\n    return math.log(p)\n")
        assert codes(report) == []


# ----------------------------------------------------------------------
# SWP002 — seeded RNG
# ----------------------------------------------------------------------
class TestSWP002:
    def test_legacy_np_random_fires(self):
        report = check(CORE, "import numpy as np\nnp.random.seed(0)\nx = np.random.rand(3)\n")
        assert codes(report) == ["SWP002", "SWP002"]

    def test_unseeded_default_rng_fires(self):
        report = check(CORE, "import numpy as np\nrng = np.random.default_rng()\n")
        assert codes(report) == ["SWP002"]

    def test_explicit_none_seed_fires(self):
        report = check(CORE, "import numpy as np\nrng = np.random.default_rng(None)\n")
        assert codes(report) == ["SWP002"]

    def test_seeded_default_rng_clean(self):
        assert codes(check(CORE, "import numpy as np\nrng = np.random.default_rng(17)\n")) == []

    def test_stdlib_random_fires(self):
        assert codes(check(CORE, "import random\nx = random.random()\n")) == ["SWP002"]

    def test_from_random_import_fires(self):
        assert codes(check(CORE, "from random import shuffle\n")) == ["SWP002"]

    def test_generator_constructors_allowed(self):
        text = "import numpy as np\nrng = np.random.Generator(np.random.PCG64(5))\n"
        assert codes(check(CORE, text)) == []

    def test_repro_testing_is_exempt(self):
        report = check("src/repro/testing/example.py", "import random\nx = random.random()\n")
        assert codes(report) == []


# ----------------------------------------------------------------------
# SWP003 — budget-checked adaptive loops
# ----------------------------------------------------------------------
_UNCHECKED_LOOP = """\
def run(schedule):
    for index, size in enumerate(schedule.sizes):
        work(size)
"""

_CHECKED_LOOP = """\
def run(schedule, budget, cancellation):
    for index, size in enumerate(schedule.sizes):
        work(size)
        reason = check_interruption(
            budget, cancellation,
            elapsed_seconds=0.0, cells_used=0, next_sample_size=size,
        )
        if reason is not None:
            break
"""


class TestSWP003:
    def test_unchecked_adaptive_loop_fires_in_baselines(self):
        assert codes(check(BASELINES, _UNCHECKED_LOOP)) == ["SWP003"]

    def test_unchecked_adaptive_loop_fires_in_engine(self):
        assert codes(check(ENGINE, _UNCHECKED_LOOP)) == ["SWP003"]

    def test_checked_loop_is_clean(self):
        assert codes(check(BASELINES, _CHECKED_LOOP)) == []

    def test_method_style_checkpoint_counts(self):
        text = (
            "def run(schedule, ctx):\n"
            "    for size in schedule.sizes:\n"
            "        if ctx.interruption(size) is not None:\n"
            "            break\n"
        )
        assert codes(check(BASELINES, text)) == []

    def test_while_loop_computing_intervals_fires(self):
        text = (
            "def run(provider, names):\n"
            "    while True:\n"
            "        ivs = [provider.interval(a, 8) for a in names]\n"
            "        break\n"
        )
        assert codes(check(BASELINES, text)) == ["SWP003"]

    def test_non_adaptive_loop_is_clean(self):
        assert codes(check(BASELINES, "def f(xs):\n    for x in xs:\n        print(x)\n")) == []

    def test_out_of_scope_module_is_clean(self):
        assert codes(check("src/repro/core/schedule.py", _UNCHECKED_LOOP)) == []


# ----------------------------------------------------------------------
# SWP004 — no float equality on scores
# ----------------------------------------------------------------------
class TestSWP004:
    def test_interval_attribute_equality_fires(self):
        text = "def f(iv):\n    return iv.estimate == 1.0\n"
        assert codes(check(CORE, text)) == ["SWP004"]

    def test_entropy_name_equality_fires(self):
        text = "def f(max_entropy):\n    return max_entropy != 0.0\n"
        assert codes(check(CORE, text)) == ["SWP004"]

    def test_ordering_comparison_is_clean(self):
        text = "def f(iv, max_entropy):\n    return iv.lower <= 1.0 and max_entropy <= 0.0\n"
        assert codes(check(CORE, text)) == []

    def test_plain_name_equality_is_clean(self):
        assert codes(check(CORE, "def f(count):\n    return count == 3\n")) == []


# ----------------------------------------------------------------------
# SWP005 — validate, don't assert
# ----------------------------------------------------------------------
class TestSWP005:
    def test_parameter_assert_fires_as_warning(self):
        report = check(CORE, "def query(k):\n    assert k > 0\n    return k\n")
        assert codes(report) == ["SWP005"]
        assert report.violations[0].severity is Severity.WARNING

    def test_narrowing_assert_allowed(self):
        text = "def query(sampler):\n    assert sampler is not None\n    return sampler\n"
        assert codes(check(CORE, text)) == []

    def test_local_invariant_assert_allowed(self):
        text = "def query(k):\n    total = k + 1\n    assert total\n    return total\n"
        assert codes(check(CORE, text)) == []

    def test_private_function_exempt(self):
        assert codes(check(CORE, "def _helper(k):\n    assert k > 0\n")) == []


# ----------------------------------------------------------------------
# SWP006 — __all__ hygiene
# ----------------------------------------------------------------------
class TestSWP006:
    def test_unlisted_public_def_fires(self):
        text = '__all__ = ["f"]\n\ndef f():\n    pass\n\ndef g():\n    pass\n'
        report = check(CORE, text)
        assert codes(report) == ["SWP006"]
        assert "'g'" in report.violations[0].message

    def test_phantom_export_fires(self):
        report = check(CORE, '__all__ = ["ghost"]\n')
        assert codes(report) == ["SWP006"]

    def test_matching_all_is_clean(self):
        text = '__all__ = ["f"]\n\ndef f():\n    pass\n\ndef _private():\n    pass\n'
        assert codes(check(CORE, text)) == []

    def test_module_without_all_is_out_of_scope(self):
        assert codes(check(CORE, "def f():\n    pass\n")) == []

    def test_constants_not_forced_into_all(self):
        assert codes(check(CORE, '__all__ = ["f"]\n\nLIMIT = 3\n\ndef f():\n    pass\n')) == []


# ----------------------------------------------------------------------
# SWP007 — repro exceptions only
# ----------------------------------------------------------------------
class TestSWP007:
    def test_builtin_raise_fires(self):
        report = check(CORE, 'def f(x):\n    raise ValueError("bad")\n')
        assert codes(report) == ["SWP007"]

    def test_repro_exception_is_clean(self):
        text = (
            "from repro.exceptions import ParameterError\n\n"
            'def f(x):\n    raise ParameterError("bad")\n'
        )
        assert codes(check(CORE, text)) == []

    def test_not_implemented_allowed(self):
        assert codes(check(CORE, "def f(x):\n    raise NotImplementedError\n")) == []

    def test_bare_reraise_allowed(self):
        text = "def f(x):\n    try:\n        g(x)\n    except Exception:\n        raise\n"
        assert codes(check(CORE, text)) == []

    def test_repro_testing_exempt(self):
        report = check("src/repro/testing/example.py", 'def f():\n    raise OSError("boom")\n')
        assert codes(report) == []


# ----------------------------------------------------------------------
# SWP008 — monotonic timing
# ----------------------------------------------------------------------
class TestSWP008:
    def test_time_time_fires_everywhere(self):
        for path in (CORE, "scripts/example.py", "tests/example.py"):
            report = check(path, "import time\nstart = time.time()\n")
            assert codes(report) == ["SWP008"], path

    def test_perf_counter_is_clean(self):
        assert codes(check(CORE, "import time\nstart = time.perf_counter()\n")) == []


# ----------------------------------------------------------------------
# SWP009 — counting stays behind the CountingBackend seam
# ----------------------------------------------------------------------
class TestSWP009:
    def test_bincount_fires_outside_repro_data(self):
        text = "import numpy as np\n\ndef f(col):\n    return np.bincount(col)\n"
        assert codes(check(CORE, text)) == ["SWP009"]

    def test_bincount_respects_numpy_alias(self):
        text = "import numpy\n\ndef f(col):\n    return numpy.bincount(col)\n"
        assert codes(check(CORE, text)) == ["SWP009"]

    def test_joint_counter_construction_fires(self):
        text = (
            "from repro.data.joint import JointCounter\n\n"
            "def f(u1, u2):\n    return JointCounter(u1, u2)\n"
        )
        assert codes(check(BASELINES, text)) == ["SWP009"]

    def test_repro_data_is_exempt(self):
        text = "import numpy as np\n\ndef f(col):\n    return np.bincount(col)\n"
        assert codes(check("src/repro/data/example.py", text)) == []

    def test_tests_and_scripts_out_of_scope(self):
        text = "import numpy as np\n\ndef f(col):\n    return np.bincount(col)\n"
        for path in ("tests/example.py", "scripts/example.py"):
            assert codes(check(path, text)) == [], path

    def test_noqa_with_justification_suppresses(self):
        text = (
            "import numpy as np\n\ndef f(col):\n"
            "    # derived values, not a sample prefix\n"
            "    return np.bincount(col)  # noqa: SWP009\n"
        )
        report = check(CORE, text)
        assert codes(report) == []
        assert [v.rule for v in report.suppressed] == ["SWP009"]


# ----------------------------------------------------------------------
# SWP010 — no direct stdout/stderr output in repro.core
# ----------------------------------------------------------------------
class TestSWP010:
    def test_print_fires_in_repro_core(self):
        text = "def f(x):\n    print(x)\n    return x\n"
        assert codes(check(CORE, text)) == ["SWP010"]

    def test_sys_stdout_write_fires(self):
        text = "import sys\n\ndef f(x):\n    sys.stdout.write(str(x))\n"
        assert codes(check(CORE, text)) == ["SWP010"]

    def test_sys_stderr_writelines_fires(self):
        text = "import sys\n\ndef f(lines):\n    sys.stderr.writelines(lines)\n"
        assert codes(check(CORE, text)) == ["SWP010"]

    def test_respects_sys_alias(self):
        text = "import sys as system\n\ndef f(x):\n    system.stdout.write(x)\n"
        assert codes(check(CORE, text)) == ["SWP010"]

    def test_cli_and_tests_out_of_scope(self):
        text = "def f(x):\n    print(x)\n"
        for path in (
            "src/repro/cli.py",
            "src/repro/experiments/report.py",
            "tests/example.py",
            "scripts/example.py",
        ):
            assert codes(check(path, text)) == [], path

    def test_other_sys_calls_allowed(self):
        text = "import sys\n\ndef f():\n    return sys.exit(0)\n"
        assert codes(check(CORE, text)) == []

    def test_local_print_shadow_still_fires(self):
        # The rule is syntactic by design: a local function named
        # ``print`` in the engine is exactly as suspicious.
        text = "def f(x, print):\n    print(x)\n"
        assert codes(check(CORE, text)) == ["SWP010"]

    def test_noqa_suppresses(self):
        text = "def f(x):\n    print(x)  # noqa: SWP010\n"
        report = check(CORE, text)
        assert codes(report) == []
        assert [v.rule for v in report.suppressed] == ["SWP010"]


# ----------------------------------------------------------------------
# SWP011 — adaptive loops stay behind the planner
# ----------------------------------------------------------------------
class TestSWP011:
    def test_direct_top_k_loop_fires_in_baselines(self):
        text = (
            "from repro.core.engine import adaptive_top_k\n\n"
            "def f(provider, sampler, names, schedule):\n"
            "    return adaptive_top_k(provider, sampler, names, 3, 0.1, schedule)\n"
        )
        assert codes(check(BASELINES, text)) == ["SWP011"]

    def test_direct_filter_loop_fires_in_core(self):
        text = (
            "from repro.core import engine\n\n"
            "def f(provider, sampler, names, schedule):\n"
            "    return engine.adaptive_filter(\n"
            "        provider, sampler, names, 2.0, 0.05, schedule\n"
            "    )\n"
        )
        assert codes(check(CORE, text)) == ["SWP011"]

    def test_engine_and_plan_are_exempt(self):
        text = (
            "def adaptive_top_k(*args):\n    return args\n\n"
            "def f(x):\n    return adaptive_top_k(x)\n"
        )
        for path in (ENGINE, "src/repro/core/plan.py"):
            assert codes(check(path, text)) == [], path

    def test_tests_and_benchmarks_out_of_scope(self):
        text = (
            "from repro.core.engine import adaptive_filter\n\n"
            "def f(provider, sampler, names, schedule):\n"
            "    return adaptive_filter(provider, sampler, names, 2.0, 0.05, schedule)\n"
        )
        for path in ("tests/example.py", "benchmarks/example.py"):
            assert codes(check(path, text)) == [], path

    def test_unrelated_call_names_are_clean(self):
        text = (
            "from repro.core.plan import PlanExecutor\n\n"
            "def f(store, spec):\n    return PlanExecutor(store).execute_one(spec)\n"
        )
        assert codes(check(CORE, text)) == []

    def test_noqa_with_justification_suppresses(self):
        text = (
            "from repro.core.engine import adaptive_top_k\n\n"
            "def f(provider, sampler, names, schedule):\n"
            "    # ablation harness: deliberately bypasses plan accounting\n"
            "    return adaptive_top_k(provider, sampler, names, 3, 0.1, schedule)  # noqa: SWP011\n"
        )
        report = check(BASELINES, text)
        assert codes(report) == []
        assert [v.rule for v in report.suppressed] == ["SWP011"]


class TestSWP012:
    def test_path_write_text_fires(self):
        text = (
            "from pathlib import Path\n\n"
            "def f(path, payload):\n"
            "    Path(path).write_text(payload)\n"
        )
        assert codes(check(CORE, text)) == ["SWP012"]

    def test_write_bytes_fires(self):
        text = "def f(path, blob):\n    path.write_bytes(blob)\n"
        assert codes(check(CORE, text)) == ["SWP012"]

    def test_builtin_open_write_mode_fires(self):
        for mode in ("w", "wb", "a", "x"):
            text = f'def f(path):\n    return open(path, "{mode}")\n'
            assert codes(check(CORE, text)) == ["SWP012"], mode

    def test_open_mode_keyword_fires(self):
        text = 'def f(path):\n    return open(path, mode="w")\n'
        assert codes(check(CORE, text)) == ["SWP012"]

    def test_path_open_write_mode_fires(self):
        text = 'def f(path):\n    return path.open("w")\n'
        assert codes(check(CORE, text)) == ["SWP012"]

    def test_reads_are_clean(self):
        text = (
            "def f(path):\n"
            "    with open(path) as fh:\n"
            "        a = fh.read()\n"
            '    b = path.read_text(encoding="utf-8")\n'
            '    c = open(path, "rb").read()\n'
            "    return a, b, c\n"
        )
        assert codes(check(CORE, text)) == []

    def test_dynamic_mode_is_clean(self):
        # A non-constant mode cannot be judged syntactically; the rule
        # stays silent rather than guessing.
        text = "def f(path, mode):\n    return open(path, mode)\n"
        assert codes(check(CORE, text)) == []

    def test_durability_and_testing_are_exempt(self):
        text = "def f(path, payload):\n    path.write_text(payload)\n"
        for path in (
            "src/repro/durability/atomic.py",
            "src/repro/testing/chaos.py",
        ):
            assert codes(check(path, text)) == [], path

    def test_tests_and_scripts_out_of_scope(self):
        text = "def f(path, payload):\n    path.write_text(payload)\n"
        for path in ("tests/example.py", "scripts/example.py"):
            assert codes(check(path, text)) == [], path

    def test_noqa_with_justification_suppresses(self):
        text = (
            "def f(path, payload):\n"
            "    # scratch file consumed in-process; durability not needed\n"
            "    path.write_text(payload)  # noqa: SWP012\n"
        )
        report = check(CORE, text)
        assert codes(report) == []
        assert [v.rule for v in report.suppressed] == ["SWP012"]


# ----------------------------------------------------------------------
# SWP017 — cache access names the dataset fingerprint
# ----------------------------------------------------------------------
class TestSWP017:
    def test_direct_cache_partition_construction_fires(self):
        text = (
            "from repro.cache import CachePartition\n\n"
            "def f(fp, sh):\n"
            '    return CachePartition(fingerprint=fp, shuffle=sh)\n'
        )
        assert codes(check(CORE, text)) == ["SWP017"]

    def test_partition_missing_fingerprint_fires(self):
        text = "def f(cache, sh):\n    return cache.partition(shuffle=sh)\n"
        assert codes(check(CORE, text)) == ["SWP017"]

    def test_partition_missing_shuffle_fires(self):
        text = "def f(cache, fp):\n    return cache.partition(fingerprint=fp)\n"
        assert codes(check(CORE, text)) == ["SWP017"]

    def test_partition_no_arguments_fires(self):
        text = "def f(cache):\n    return cache.partition()\n"
        assert codes(check(CORE, text)) == ["SWP017"]

    def test_partition_positional_keys_fire(self):
        # Keys passed positionally hide which is which — the signature is
        # keyword-only precisely so call sites must spell them.
        text = "def f(cache, fp, sh):\n    return cache.partition(fp, sh)\n"
        assert codes(check(CORE, text)) == ["SWP017"]

    def test_both_keywords_are_clean(self):
        text = (
            "def f(cache, fp, sh):\n"
            "    return cache.partition(fingerprint=fp, shuffle=sh)\n"
        )
        assert codes(check(CORE, text)) == []

    def test_str_partition_is_clean(self):
        text = 'def f(line):\n    return line.partition("=")\n'
        assert codes(check(CORE, text)) == []

    def test_cache_package_is_exempt(self):
        text = (
            "def f(fp, sh):\n"
            "    return CachePartition(fingerprint=fp, shuffle=sh)\n"
        )
        assert codes(check("src/repro/cache/store.py", text)) == []

    def test_tests_out_of_scope(self):
        text = "def f(cache):\n    return cache.partition()\n"
        assert codes(check("tests/example.py", text)) == []

    def test_noqa_with_justification_suppresses(self):
        text = (
            "def f(table, key):\n"
            "    # external hash-ring API, not the plan cache\n"
            "    return table.partition(key=key)  # noqa: SWP017\n"
        )
        report = check(CORE, text)
        assert codes(report) == []
        assert [v.rule for v in report.suppressed] == ["SWP017"]


# ----------------------------------------------------------------------
# SWP018 — no whole-column materialisation outside the storage layer
# ----------------------------------------------------------------------
class TestSWP018:
    def test_whole_column_read_fires_in_core(self):
        text = "def f(store, name):\n    return store.column(name)\n"
        assert codes(check(CORE, text)) == ["SWP018"]

    def test_chained_attribute_read_fires(self):
        text = "def f(self, name):\n    return self._store.column(name)\n"
        assert codes(check(CORE, text)) == ["SWP018"]

    def test_column_block_is_clean(self):
        text = (
            "def f(store, name, rows):\n"
            "    return store.column_block(name, rows)\n"
        )
        assert codes(check(CORE, text)) == []

    def test_data_package_is_exempt(self):
        text = "def f(store, name):\n    return store.column(name)\n"
        assert codes(check("src/repro/data/example.py", text)) == []

    def test_baselines_package_is_exempt(self):
        text = "def f(store, name):\n    return store.column(name)\n"
        assert codes(check(BASELINES, text)) == []

    def test_tests_out_of_scope(self):
        text = "def f(store, name):\n    return store.column(name)\n"
        assert codes(check("tests/example.py", text)) == []

    def test_noqa_with_justification_suppresses(self):
        text = (
            "def f(store, name):\n"
            "    # deliberate full scan: exact baseline comparison\n"
            "    return store.column(name)  # noqa: SWP018\n"
        )
        report = check(CORE, text)
        assert codes(report) == []
        assert [v.rule for v in report.suppressed] == ["SWP018"]


# ----------------------------------------------------------------------
# noqa suppression + SWP000
# ----------------------------------------------------------------------
class TestSuppression:
    def test_noqa_suppresses_and_is_counted(self):
        text = "import math\n\ndef f(p):\n    return math.log(p)  # noqa: SWP001\n"
        report = check(CORE, text)
        assert codes(report) == []
        assert [v.rule for v in report.suppressed] == ["SWP001"]

    def test_noqa_is_per_code(self):
        text = "import math\n\ndef f(p):\n    return math.log(p)  # noqa: SWP008\n"
        report = check(CORE, text)
        # SWP001 still fires; the SWP008 noqa is itself stale.
        assert sorted(codes(report)) == ["SWP000", "SWP001"]

    def test_unused_suppression_reported(self):
        report = check(CORE, "x = 1  # noqa: SWP001\n")
        assert codes(report) == ["SWP000"]
        assert report.violations[0].severity is Severity.WARNING

    def test_unused_reporting_can_be_disabled(self):
        report = check(CORE, "x = 1  # noqa: SWP001\n", report_unused=False)
        assert codes(report) == []

    def test_select_does_not_stale_other_rules_noqa(self):
        # Narrowing to SWP002 must not judge an SWP001 suppression stale.
        report = check(CORE, "x = 1  # noqa: SWP001\n", select=["SWP002"])
        assert codes(report) == []

    def test_unknown_rule_suppression_reported(self):
        # A code that no rule registers — a typo or a deleted rule —
        # is SWP000 even though it can never fire.
        report = check(CORE, "x = 1  # noqa: SWP999\n")
        assert codes(report) == ["SWP000"]
        assert "unknown rule SWP999" in report.violations[0].message

    def test_unknown_rule_suppression_survives_select(self):
        # Unlike staleness, unknown-ness is judgeable under any --select:
        # no narrowing can make a nonexistent rule fire.
        report = check(CORE, "x = 1  # noqa: SWP999\n", select=["SWP002"])
        assert codes(report) == ["SWP000"]

    def test_unknown_rule_reporting_can_be_disabled(self):
        report = check(CORE, "x = 1  # noqa: SWP999\n", report_unused=False)
        assert codes(report) == []

    def test_noqa_text_inside_string_is_not_a_suppression(self):
        text = 'import math\nNOTE = "use # noqa: SWP001 sparingly"\n\ndef f(p):\n    return math.log(p)\n'
        report = check(CORE, text)
        assert codes(report) == ["SWP001"]

    def test_multiple_codes_in_one_noqa(self):
        text = (
            "import math\nimport time\n\n"
            "def f(p):\n"
            "    return math.log(p) + time.time()  # noqa: SWP001, SWP008\n"
        )
        report = check(CORE, text)
        assert codes(report) == []
        assert sorted(v.rule for v in report.suppressed) == ["SWP001", "SWP008"]


# ----------------------------------------------------------------------
# select / ignore
# ----------------------------------------------------------------------
class TestSelection:
    BOTH = "import math\nimport time\n\ndef f(p):\n    return math.log(p) + time.time()\n"

    def test_select_narrows(self):
        assert codes(check(CORE, self.BOTH, select=["SWP008"])) == ["SWP008"]

    def test_ignore_drops(self):
        assert codes(check(CORE, self.BOTH, ignore=["SWP001"])) == ["SWP008"]

    def test_unknown_code_is_an_error(self):
        from repro.exceptions import AnalysisError

        with pytest.raises(AnalysisError):
            check(CORE, "x = 1\n", select=["SWP999"])

    def test_syntax_error_becomes_parse_error(self):
        report = check(CORE, "def f(:\n")
        assert report.violations == []
        assert len(report.parse_errors) == 1
        assert report.has_errors()


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------
class TestReporters:
    def test_text_reporter_lines(self):
        report = check(CORE, "import time\nstart = time.time()\n")
        text = render_text(report)
        assert "SWP008" in text
        assert f"{CORE}:2:" in text

    def test_json_reporter_shape(self):
        report = check(CORE, "import time\nstart = time.time()\n")
        payload = json.loads(render_json(report))
        assert payload["checked_files"] == 1
        assert payload["counts"] == {"SWP008": 1}
        (violation,) = payload["violations"]
        assert violation["rule"] == "SWP008"
        assert violation["path"] == CORE
        assert violation["line"] == 2
        assert violation["severity"] == "error"

    def test_clean_report_text(self):
        report = check(CORE, "x = 1\n")
        assert "no violations" in render_text(report)


class TestSarif:
    def test_sarif_shape_and_fingerprints(self):
        report = check(CORE, "import time\ndef f():\n    return time.time()\n")
        assert codes(report) == ["SWP008"]
        payload = json.loads(render_sarif(report))
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"SWP001", "SWP018", "SWP000", "PARSE"} <= rule_ids
        [result] = run["results"]
        assert result["ruleId"] == "SWP008"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == CORE
        assert location["region"]["startLine"] == 3
        assert location["region"]["startColumn"] >= 1
        fingerprint = result["partialFingerprints"]["swopeFingerprint/v1"]
        assert fingerprint == report.violations[0].fingerprint

    def test_parse_errors_become_results(self):
        report = check("src/repro/broken.py", "def f(:\n")
        payload = json.loads(render_sarif(report))
        [result] = payload["runs"][0]["results"]
        assert result["ruleId"] == "PARSE"
        assert result["level"] == "error"

    def test_cli_sarif_output_parses(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--format", "sarif", "src"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["version"] == "2.1.0"
        assert payload["runs"][0]["results"] == []


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
@pytest.fixture()
def lint_tree(tmp_path, monkeypatch):
    """A tiny fake repo with one violation, cwd-pinned for the CLI."""
    pkg = tmp_path / "code"
    pkg.mkdir()
    (pkg / "clean.py").write_text("import time\nstart = time.perf_counter()\n")
    (pkg / "dirty.py").write_text("import time\nstart = time.time()\n")
    monkeypatch.chdir(tmp_path)
    return pkg


class TestCLI:
    def test_violations_exit_one(self, lint_tree, capsys):
        assert main(["code"]) == 1
        assert "SWP008" in capsys.readouterr().out

    def test_clean_tree_exits_zero(self, lint_tree, capsys):
        (lint_tree / "dirty.py").unlink()
        assert main(["code"]) == 0
        assert "no violations" in capsys.readouterr().out

    def test_select_bypasses(self, lint_tree, capsys):
        assert main(["code", "--select", "SWP001"]) == 0
        capsys.readouterr()

    def test_json_format(self, lint_tree, capsys):
        assert main(["code", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"SWP008": 1}

    def test_missing_path_exits_two(self, lint_tree, capsys):
        assert main(["no/such/dir"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_retired_rule_codes_exit_two(self, lint_tree, capsys):
        for code in ("SWP013", "SWP014", "SWP015", "SWP016"):
            assert main(["code", "--select", code]) == 2
            assert f"unknown rule {code!r}" in capsys.readouterr().err

    def test_list_rules(self, lint_tree, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in all_codes():
            assert code in out

    def test_warning_only_exit_policy(self, lint_tree, capsys):
        (lint_tree / "dirty.py").write_text("x = 1  # noqa: SWP001\n")
        assert main(["code"]) == 0  # SWP000 is a warning
        assert main(["code", "--fail-on-warning"]) == 1
        assert main(["code", "--no-unused-suppressions"]) == 0
        capsys.readouterr()


# ----------------------------------------------------------------------
# The live tree (the CI gate, in-process)
# ----------------------------------------------------------------------
class TestLiveTree:
    def test_repository_is_violation_free(self):
        report = analyze_paths(
            [
                REPO_ROOT / name
                for name in (
                    "src",
                    "tests",
                    "scripts",
                    "benchmarks",
                    "examples",
                    "perfbench",
                )
            ],
            display_root=REPO_ROOT,
        )
        findings = "\n".join(v.format_text() for v in report.violations)
        assert not report.violations, f"static-analysis violations:\n{findings}"
        assert not report.parse_errors
        assert report.checked_files > 50

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "src", "--select", "SWP008"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


# ----------------------------------------------------------------------
# Strict typing sweep (runs only where mypy is installed, e.g. CI)
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    importlib.util.find_spec("mypy") is None, reason="mypy not installed"
)
def test_strict_typing_sweep():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "mypy",
            "--config-file",
            str(REPO_ROOT / "setup.cfg"),
            "-p",
            "repro",
        ],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
