"""One test over every row of the rule registry: the code has a
summary, a seeded case fires it, ``# dyn: ok(<that code>)`` on the
finding's line or on the line above silences it, and a waiver naming
another code does not.  Plus the docs table and DESIGN.md's module map
staying in step, and the audit ledger: every rule says what it earned its place with, and no
waiver in the tree names a rule that is gone."""

import pathlib
import re

import pytest

from repro.analysis.__main__ import analyze
from repro.analysis.findings import _OK
from repro.analysis.rules import RULES

ROOT = pathlib.Path(__file__).parent.parent

LIB = "repro/apps/x.py"

#: code -> (path the case is analyzed at, its source).  The path picks
#: the zone.
CASES = {
    "DYN000": ("x.py", "def f(:\n"),
    "DYN001": ("x.py", "def program(ep):\n"
                       "    ep.send(1, tag=0, payload='lost')\n"
                       "    yield from ep.recv(1, tag=1)\n"),
    "DYN002": ("x.py", "def program(ep):\n"
                       "    data = yield ep.recv(0, tag=1)\n"),
    "DYN101": ("repro/core/x.py", "import time\nt = time.time()\n"),
    "DYN401": ("core/x.py", "def owned(b):\n"
                            "    return set(range(b[0], b[1] + 1))\n"),
    "DYN601": (LIB, "print('chatty library')\n"),
    "DYN801": (LIB, "import subprocess\n"),
    "DYN901": (LIB, "import heapq\n"),
    "DYN1101": (LIB, "def f(ep):\n    yield from ep.send(0, 211, None)\n"),
}


def test_every_rule_has_a_seeded_case():
    assert set(CASES) == set(RULES)


def _hits(tmp_path, rel, source, code):
    f = tmp_path / rel
    f.parent.mkdir(parents=True, exist_ok=True)
    f.write_text(source)
    return [x.line for x in analyze([f]) if x.code == code]


@pytest.mark.parametrize("code", sorted(RULES))
def test_code_fires_and_only_its_own_waiver_silences_it(tmp_path, code):
    assert RULES[code].summary
    rel, source = CASES[code]
    hits = _hits(tmp_path, rel, source, code)
    assert hits, f"the seeded case {rel} for {code} is clean"
    at = hits[0]
    lines = source.splitlines()
    other = next(c for c in sorted(RULES) if c != code)

    def with_trailing(mark):
        out = list(lines)
        out[at - 1] += f"  # dyn: ok({mark}) seeded on purpose"
        return "\n".join(out) + "\n"

    assert at not in _hits(tmp_path, rel, with_trailing(code), code)
    assert at not in _hits(tmp_path, rel, with_trailing(f"{other}, {code}"),
                           code)
    assert at in _hits(tmp_path, rel, with_trailing(other), code)

    indent = re.match(r"\s*", lines[at - 1]).group()
    above = lines[:at - 1] + [f"{indent}# dyn: ok({code})"] + lines[at - 1:]
    assert at + 1 not in _hits(tmp_path, rel, "\n".join(above) + "\n", code)


def test_waiver_on_a_code_line_does_not_reach_the_next_line(tmp_path):
    source = "import heapq  # dyn: ok(DYN901)\nimport heapq as hq\n"
    assert _hits(tmp_path, LIB, source, "DYN901") == [2]


def test_docs_table_lists_exactly_the_registry():
    text = (ROOT / "docs" / "ANALYSIS.md").read_text()
    section = text.split("## Finding codes", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| (DYN\d+) \|.*\| ([^|]+) \|$", section, flags=re.M)
    assert sorted(code for code, _ in rows) == sorted(RULES)
    # the last column is the registry's audit ledger, verbatim
    assert dict(rows) == {r.code: r.earned_by for r in RULES.values()}


def test_design_module_map_names_only_files_that_exist():
    text = (ROOT / "DESIGN.md").read_text()
    tree = text.split("## 3. Package inventory", 1)[1].split("```")[1]
    named, package = [], ROOT / "src" / "repro"
    for line in tree.splitlines():
        indent = len(line) - len(line.lstrip())
        words = line.split()
        if indent == 2 and words[0].endswith("/"):
            package = ROOT / "src" / "repro" / words[0]
        elif indent == 2:
            package = ROOT / "src" / "repro"
        if indent in (2, 4):  # deeper lines are continued descriptions
            for word in words:
                if not word.endswith(".py"):
                    break
                named.append(package / word)
    assert len(named) > 80
    assert [str(p) for p in named if not p.is_file()] == []


def test_every_rule_says_what_it_earned_its_place_with():
    for rule in RULES.values():
        kind, _, what = rule.earned_by.partition(": ")
        assert kind in ("defect", "fence") and what.strip(), rule.code


def test_no_waiver_names_a_retired_rule():
    dead = [
        f"{path}:{n}: {code}"
        for top in ("src", "examples", "benchmarks")
        for path in sorted((ROOT / top).rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        for m in _OK.finditer(line)   # the driver's own waiver pattern
        for code in re.findall(r"DYN\d+", m.group(1))
        if code not in RULES
    ]
    assert dead == []
