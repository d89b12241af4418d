"""Every backticked ``repro.…`` name in the docs and the sources imports,
and every analysis rule code the docs name is registered.

A deleted or renamed module, function, class or lint rule leaves no
stale reference behind: the prose docs (README, DESIGN, ``docs/*.md``)
and the docstrings and comments under ``src/repro`` may cite only names
that exist, and the docs, the CI workflow and the verification notes
may cite only rule codes that exist.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

from repro.analysis.rules import RULES, UNUSED_SUPPRESSION

ROOT = Path(__file__).resolve().parent.parent

#: Markdown code spans, and reST literals and roles (``~`` included).
_REFERENCE = re.compile(r"`~?(repro(?:\.\w+)+)`")

#: An analysis rule code such as ``SWP014``.
_RULE_CODE = re.compile(r"\bSWP\d{3}\b")


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


def test_every_rule_code_named_is_registered():
    """``docs/ANALYSIS.md`` records the retired codes; nothing else may
    name a code that no rule registers."""
    sources = [
        ROOT / "README.md",
        ROOT / "DESIGN.md",
        ROOT / "CONTRIBUTING.md",
        ROOT / ".github" / "workflows" / "ci.yml",
        ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
    ]
    sources += sorted(
        path for path in (ROOT / "docs").glob("*.md") if path.name != "ANALYSIS.md"
    )
    known = set(RULES) | {UNUSED_SUPPRESSION}
    named = 0
    stale = []
    for path in sources:
        for match in _RULE_CODE.finditer(path.read_text(encoding="utf-8")):
            named += 1
            if match.group(0) not in known:
                stale.append(f"{path.relative_to(ROOT)}: {match.group(0)}")
    assert named > 10  # the pattern still matches the docs' style
    assert not stale, "unregistered rule codes:\n" + "\n".join(stale)
