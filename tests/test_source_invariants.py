"""Source invariants of ``src/repro`` that no run-time test can see.

Plain ``ast`` walks over the package, each with the packages that own
the call and an allow-list of deliberate ``(module, call)`` sites:

* counting behind the sampler: no ``bincount`` or ``JointCounter(``
  outside ``repro.data`` (the poll audit and the cell budget see only
  the cells the sampler bills);
* atomic durable writes: no ``open(..., "w"/"a"/"x")``, ``.write_text``,
  ``.write_bytes`` or ``.open("w")`` outside ``repro.durability`` and
  ``repro.testing`` (the chaos suite kills between boundaries, never
  inside a write);
* no whole-column reads: no ``.column(`` outside ``repro.data`` and
  ``repro.baselines`` (on a memory-mapped store it pages in every row).

Each check must also flag every bad fixture and leave the owning packages
and the good calls alone, so its power is tested too.
"""

from __future__ import annotations

import ast
import importlib.util
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"


def _name(func: ast.expr) -> str | None:
    """The called name: ``f`` for ``f(...)`` and ``a.b.f(...)``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _writes(call: ast.Call) -> bool:
    """Whether an ``open``-style call has a constant write, append or
    exclusive-create mode; a dynamic mode is not judged."""
    if isinstance(call.func, ast.Attribute) and len(call.args) == 1:
        mode: ast.expr | None = call.args[0]  # path.open("w")
    else:
        mode = call.args[1] if len(call.args) >= 2 else None
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    return (
        isinstance(mode, ast.Constant)
        and isinstance(mode.value, str)
        and any(flag in mode.value for flag in "wax")
    )


def _counting(call: ast.Call) -> str | None:
    name = _name(call.func)
    return {"bincount": "np.bincount", "JointCounter": "JointCounter("}.get(name)


def _durable_write(call: ast.Call) -> str | None:
    name = _name(call.func)
    if name in ("write_text", "write_bytes"):
        return f".{name}"
    if name == "open" and _writes(call):
        return "open(" if isinstance(call.func, ast.Name) else ".open("
    return None


def _column_read(call: ast.Call) -> str | None:
    is_method = isinstance(call.func, ast.Attribute)
    return ".column(" if is_method and call.func.attr == "column" else None


#: name -> (finder, owning packages, allowed (module, call) sites).
CHECKS = {
    "counting": (
        _counting,
        ("repro.data",),
        [
            # A label histogram over a tree split's rows, not a sample prefix.
            ("repro.applications.decision_tree", "np.bincount"),
            # The exact baseline reads the whole dataset once; no sampler
            # exists whose batch methods could own this counter.
            ("repro.baselines.exact", "JointCounter("),
        ],
    ),
    "durable_write": (_durable_write, ("repro.durability", "repro.testing"), []),
    "column_read": (
        _column_read,
        ("repro.data", "repro.baselines"),
        [
            # The fault-injecting store wrapper: these are the reads it
            # instruments (column, and column_block routed through it).
            ("repro.testing.faults", ".column("),
            ("repro.testing.faults", ".column("),
        ],
    ),
}

#: Per check, named bad fixtures: calls that each break the check once.
BAD = {
    "counting": {
        "bincount": ("np.bincount(codes, minlength=4)",),
        "numpy_alias": ("numpy.bincount(codes)",),
        "joint_counter": ("JointCounter(2, 3)", "joint.JointCounter(2, 3)"),
    },
    "durable_write": {
        "open_mode": tuple(f'open(path, "{m}")' for m in ("w", "wb", "a", "x"))
        + ('io.open(path, "w+")',),
        "mode_keyword": ('open(path, mode="ab")',),
        "path_open": ('path.open("w")', 'path.open(mode="a")'),
        "write_text": ("path.write_text(text)",),
        "write_bytes": ("path.write_bytes(blob)",),
    },
    "column_read": {
        "column": ("store.column(name)",),
        "chained": ("self._store.column(name)[rows]",),
    },
}

#: Named calls of the same shapes that every check must leave alone.
GOOD = {
    "reads": ("open(path)", 'open(path, "rb")', "path.open()", "path.read_text()"),
    # A non-constant mode cannot be judged syntactically.
    "dynamic_mode": ("open(path, mode)",),
    "column_block": ("store.column_block(name, rows)",),
    "other_counts": ("np.unique(codes, return_counts=True)", "counter.update(a, b)"),
}


def _sites(check: str, module: str, tree: ast.AST) -> list[tuple[str, str]]:
    """The ``(module, call)`` sites in ``tree`` that break ``check``."""
    finder, owners, _ = CHECKS[check]
    if any(module == owner or module.startswith(owner + ".") for owner in owners):
        return []
    return [
        (module, found)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and (found := finder(node)) is not None
    ]


@pytest.fixture(scope="module")
def package_trees() -> dict[str, ast.AST]:
    trees = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        trees[module] = ast.parse(path.read_text(encoding="utf-8"))
    assert len(trees) > 50  # the walk still finds the package
    return trees


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_live_tree_has_only_allowed_sites(check, package_trees):
    found = Counter(
        site
        for module, tree in package_trees.items()
        for site in _sites(check, module, tree)
    )
    # A new site fails, and so does a stale allow-list entry.
    assert found == Counter(CHECKS[check][2])


@pytest.mark.parametrize(
    ("check", "case"), [(check, case) for check in BAD for case in BAD[check]]
)
def test_bad_fixture_is_flagged_on_every_line(check, case):
    for call in BAD[check][case]:
        assert len(_sites(check, "repro.core.example", ast.parse(call))) == 1, call


@pytest.mark.parametrize(
    ("check", "owner"),
    [(check, owner) for check in CHECKS for owner in CHECKS[check][1]],
)
def test_owning_package_is_exempt(check, owner):
    for calls in BAD[check].values():
        for call in calls:
            assert _sites(check, owner + ".example", ast.parse(call)) == [], call


@pytest.mark.parametrize("case", sorted(GOOD))
def test_good_call_is_clean(case):
    for check in CHECKS:
        for call in GOOD[case]:
            assert _sites(check, "repro.core.example", ast.parse(call)) == [], call


# The strict typing sweep runs where mypy is installed; CI's lint job runs
# the same command as its own step.
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
