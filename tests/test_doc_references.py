"""Every backticked ``repro.…`` name in the docs and the sources imports.

A deleted or renamed module, function or class leaves no stale
reference behind: the prose docs (README, DESIGN, ``docs/*.md``) and
the docstrings and comments under ``src/repro`` may cite only names
that exist.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Markdown code spans, and reST literals and roles (``~`` included).
_REFERENCE = re.compile(r"`~?(repro(?:\.\w+)+)`")


def _resolve(dotted: str) -> None:
    """Import the longest module prefix of ``dotted``, then walk the rest
    as attributes; raises when any part is missing."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for name in parts[split:]:
            obj = getattr(obj, name)
        return


def test_every_dotted_reference_resolves():
    sources = [ROOT / "README.md", ROOT / "DESIGN.md"]
    sources += sorted((ROOT / "docs").glob("*.md"))
    sources += sorted((ROOT / "src" / "repro").rglob("*.py"))
    references = 0
    stale = []
    for path in sources:
        for match in _REFERENCE.finditer(path.read_text(encoding="utf-8")):
            references += 1
            try:
                _resolve(match.group(1))
            except (ImportError, AttributeError) as exc:
                stale.append(f"{path.relative_to(ROOT)}: {match.group(1)} ({exc})")
    assert references > 100  # the pattern still matches the docs' style
    assert not stale, "stale references:\n" + "\n".join(stale)
