"""Smoke tests: every shipped example runs end to end.

Each example honours ``REPRO_EXAMPLE_SCALE`` so the suite can run them at
a fraction of their demo size. These tests guard the examples against
bit-rot (API drift, renamed attributes, changed defaults).
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(p.stem for p in EXAMPLES_DIR.glob("*.py"))


def _load_example(name: str):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES_DIR / f"{name}.py"
    )
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    monkeypatch.setenv("REPRO_EXAMPLE_SCALE", "0.05")


def test_examples_discovered():
    assert len(EXAMPLES) >= 6
    assert "quickstart" in EXAMPLES


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, capsys):
    module = _load_example(name)
    module.main()
    out = capsys.readouterr().out
    assert out.strip(), f"example {name} printed nothing"


def test_quickstart_output_mentions_all_queries(capsys):
    module = _load_example("quickstart")
    module.main()
    out = capsys.readouterr().out
    assert "top-2 by entropy" in out
    assert "entropy >= 3.0" in out
    assert "most informative attribute" in out

def test_tuning_epsilon_prints_the_grid(capsys):
    module = _load_example("tuning_epsilon")
    module.main()
    out = capsys.readouterr().out
    for epsilon in ("0.010", "0.500"):
        assert epsilon in out
