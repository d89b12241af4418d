"""Every backticked ``repro.…`` name in the docs and the sources imports,
and no retired lint rule code is named outside the history files.

A deleted or renamed module, function, class or lint rule leaves no
stale reference behind: the prose docs (README, DESIGN, ``docs/*.md``)
and the docstrings and comments under ``src/repro`` may cite only names
that exist. The ``SWP###`` lint codes and their ``# noqa`` suppressions
went with the linter; only CHANGELOG.md and CHANGES.md, which hold the
history, may still name them.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Markdown code spans, and reST literals and roles (``~`` included).
_REFERENCE = re.compile(r"`~?(repro(?:\.\w+)+)`")

#: A retired lint rule code (``SWP014``, ``SWP###``) or a suppression naming one.
_RULE_CODE = re.compile(r"\bSWP[\d#]|noqa: *SWP")


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


def test_no_retired_rule_code_is_named():
    sources = [
        ROOT / "README.md",
        ROOT / "DESIGN.md",
        ROOT / "CONTRIBUTING.md",
        ROOT / ".github" / "workflows" / "ci.yml",
        ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
    ]
    sources += sorted((ROOT / "docs").glob("*.md"))
    sources += sorted((ROOT / "src" / "repro").rglob("*.py"))
    stale = [
        f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
        for path in sources
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if _RULE_CODE.search(line)
    ]
    assert not stale, "retired rule codes named:\n" + "\n".join(stale)
    assert _RULE_CODE.search("x = 1  # noqa: SWP009")  # the pattern still bites
