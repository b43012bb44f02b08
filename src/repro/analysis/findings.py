"""The one finding type the static rules report through, its
rendering, and the one suppression filter.

A :class:`Finding` is one DYN diagnostic: a position, a code and a
message.  The codes themselves are declared in
:mod:`repro.analysis.rules`.

Suppression: ``# dyn: ok(DYN801) reason`` on the line the finding
anchors to — or on a comment-only line directly above it, for
multi-line expressions with no room for a trailing comment — waives
that code there (list several as ``ok(DYN401,DYN801)``).  Naming the
code keeps a waiver from silently swallowing a different finding that
later lands on the same line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from .rules import RULES

__all__ = ["Finding", "is_suppressed"]


@dataclass(frozen=True)
class Finding:
    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    __str__ = render

    def to_json(self) -> dict:
        return {
            "code": self.code,
            "summary": RULES[self.code].summary,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


_OK = re.compile(r"#\s*dyn:\s*ok\(([^)]*)\)")


def is_suppressed(finding: Finding, lines: Sequence[str]) -> bool:
    """Whether ``lines`` (the source of ``finding.path``) carries a
    ``# dyn: ok(...)`` naming the finding's code, on its line or on a
    comment-only line directly above."""
    for lineno, comment_only in ((finding.line, False),
                                 (finding.line - 1, True)):
        if not 1 <= lineno <= len(lines):
            continue
        text = lines[lineno - 1]
        if comment_only and not text.lstrip().startswith("#"):
            continue
        m = _OK.search(text)
        if m and finding.code in (c.strip() for c in m.group(1).split(",")):
            return True
    return False
