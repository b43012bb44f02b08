"""The one finding type every static pass reports through, its
rendering, and the one suppression filter.

A :class:`Finding` is one DYN diagnostic.  The per-file AST rules fill
in a position, a code and a message; the whole-program passes add the
analyzed ``function`` and *path-sensitive* context: for a divergence
finding the two communication traces a pair of ranks would emit are
rendered side by side, so the reader sees the mismatch instead of
reconstructing it.  The codes themselves are declared in
:mod:`repro.analysis.rules`.

Suppression: ``# dyn: ok(DYN503) reason`` on the line the finding
anchors to — or on a comment-only line directly above it, for
multi-line expressions with no room for a trailing comment — waives
that code there (list several as ``ok(DYN501,DYN503)``).  Naming the
code keeps a waiver from silently swallowing a different finding that
later lands on the same line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .rules import RULES

__all__ = ["Finding", "SideBySide", "is_suppressed"]


@dataclass(frozen=True)
class SideBySide:
    """The two diverging communication traces of a DYN501/503/505
    finding, already rendered one event per line."""

    left_label: str
    right_label: str
    left: tuple
    right: tuple

    def lines(self, indent: str = "    ") -> list:
        width = max(
            [len(self.left_label)] + [len(s) for s in self.left] + [24]
        )
        out = [
            f"{indent}{self.left_label:<{width}} | {self.right_label}",
            f"{indent}{'-' * width}-+-{'-' * max(len(self.right_label), 24)}",
        ]
        n = max(len(self.left), len(self.right))
        lefts = list(self.left) + [""] * (n - len(self.left))
        rights = list(self.right) + [""] * (n - len(self.right))
        if not self.left:
            lefts = ["(no communication)"] + [""] * (n - 1) if n else []
        if not self.right:
            rights = ["(no communication)"] + [""] * (n - 1) if n else []
        for ls, rs in zip(lefts, rights):
            out.append(f"{indent}{ls:<{width}} | {rs}")
        return out


@dataclass(frozen=True)
class Finding:
    path: str
    line: int
    col: int
    code: str
    message: str
    function: str = ""   # qualified name of the analyzed function
    anchor: str = ""     # line-independent identity (flow de-duplicates on it)
    side_by_side: Optional[SideBySide] = None
    hint: str = ""
    detail: dict = field(default_factory=dict, compare=False, hash=False)

    def render(self) -> str:
        where = f"[{self.function}] " if self.function else ""
        lines = [
            f"{self.path}:{self.line}:{self.col}: {self.code} "
            f"{where}{self.message}"
        ]
        if self.side_by_side is not None:
            lines.extend(self.side_by_side.lines())
        if self.hint:
            lines.append(f"    hint: {self.hint}")
        return "\n".join(lines)

    __str__ = render

    def to_json(self) -> dict:
        d = {
            "code": self.code,
            "summary": RULES[self.code].summary,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "function": self.function,
            "message": self.message,
        }
        if self.side_by_side is not None:
            d["traces"] = {
                "left_label": self.side_by_side.left_label,
                "right_label": self.side_by_side.right_label,
                "left": list(self.side_by_side.left),
                "right": list(self.side_by_side.right),
            }
        if self.hint:
            d["hint"] = self.hint
        if self.detail:
            d["detail"] = self.detail
        return d


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
