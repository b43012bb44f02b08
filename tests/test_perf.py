"""dynperf tests: hot-zone inference (path roots, the ``# dyn: hot``
directive, heat propagation through loops and ``self.`` calls), every
DYN100x code on its seeded-bad fixture, the acceptance check that the
real tree is clean, suppression + baseline handling, profile
re-ranking, the rule registry's zones, and the ``check`` CLI's
exit-code/JSON contract."""

import json
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.__main__ import analyze as analyze_perf_paths
from repro.analysis.__main__ import main
from repro.analysis.flow.callgraph import load_registry
from repro.analysis.perf.hotzone import (
    HEAT_CAP,
    infer_hot_zone,
    load_profile,
)
from repro.analysis.rules import RULES, ZONES

ROOT = pathlib.Path(__file__).parent.parent
SRC = ROOT / "src"
FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "perf"
ENV = {"PYTHONPATH": str(SRC)}


def analyze_source(tmp_path, code, name="prog.py"):
    f = tmp_path / name
    f.write_text(textwrap.dedent(code))
    findings, _zone = analyze_perf_paths([f])
    return findings


def zone_of(tmp_path, code, name="prog.py"):
    f = tmp_path / name
    f.write_text(textwrap.dedent(code))
    return load_registry([f]), infer_hot_zone(load_registry([f]))


def codes(findings):
    return sorted(f.code for f in findings)


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True, text=True, env=ENV, cwd=ROOT,
    )


# ----------------------------------------------------------------------
# hot-zone inference
# ----------------------------------------------------------------------

def test_directive_marks_root(tmp_path):
    _reg, zone = zone_of(tmp_path, """
        def cold(x):
            return x + 1

        def hot(events):  # dyn: hot
            return len(events)
    """)
    kinds = {hf.info.qualname: hf.kind for hf in zone.functions.values()}
    assert kinds == {"hot": "directive"}


def test_heat_propagates_with_loop_depth(tmp_path):
    _reg, zone = zone_of(tmp_path, """
        def helper(x):
            return x * 2

        def shallow(x):
            return helper(x)

        def hot(events):  # dyn: hot
            total = 0
            for ev in events:
                for part in ev:
                    total += helper(part)
            return shallow(total)
    """)
    heats = {hf.info.qualname: hf.heat for hf in zone.functions.values()}
    assert heats["hot"] == 1
    assert heats["helper"] == 3      # called at loop depth 2 from heat 1
    assert heats["shallow"] == 1     # called outside any loop
    via = {hf.info.qualname: hf.via for hf in zone.functions.values()}
    assert via["helper"] == "hot"


def test_heat_caps_and_recursion_terminates(tmp_path):
    _reg, zone = zone_of(tmp_path, """
        def spin(xs):  # dyn: hot
            for a in xs:
                for b in a:
                    for c in b:
                        for d in c:
                            for e in d:
                                for f in e:
                                    spin(f)
    """)
    heats = {hf.info.qualname: hf.heat for hf in zone.functions.values()}
    assert heats["spin"] == HEAT_CAP


def test_self_method_calls_propagate(tmp_path):
    _reg, zone = zone_of(tmp_path, """
        class Engine:
            def step(self, events):  # dyn: hot
                for ev in events:
                    self.apply(ev)

            def apply(self, ev):
                return ev

            def unrelated(self):
                return None
    """)
    quals = {hf.info.qualname for hf in zone.functions.values()}
    assert quals == {"Engine.step", "Engine.apply"}
    heats = {hf.info.qualname: hf.heat for hf in zone.functions.values()}
    assert heats["Engine.apply"] == 2


def test_real_tree_roots_present():
    registry = load_registry([SRC / "repro"])
    zone = infer_hot_zone(registry)
    quals = {
        (hf.info.qualname, hf.kind) for hf in zone.functions.values()
    }
    assert ("SimComm._try_match", "match") in quals
    assert ("DynMPI.end_cycle", "cycle") in quals
    assert any(k == "kernel" for _q, k in quals)
    assert any(k == "nic" for _q, k in quals)
    # the per-cycle path reaches the balancer through call edges only
    reached = {
        hf.info.qualname: hf
        for hf in zone.functions.values() if hf.kind == "reached"
    }
    assert "successive_balance" in reached
    assert reached["successive_balance"].via


def test_ranked_profile_rerank():
    registry = load_registry([SRC / "repro" / "mpi"])
    zone = infer_hot_zone(registry)
    static = zone.ranked()
    boosted = zone.ranked({"comm": 9.0})
    assert {hf.info.qualname for hf in static} == {
        hf.info.qualname for hf in boosted
    }
    # every mpi/ function is comm-phase, so a uniform boost keeps the
    # static order — spot-check determinism instead of a reshuffle
    assert [hf.info.qualname for hf in zone.ranked()] == [
        hf.info.qualname for hf in zone.ranked()
    ]


# ----------------------------------------------------------------------
# rules on fixtures
# ----------------------------------------------------------------------

@pytest.mark.parametrize("fixture,code", [
    ("bad_alloc.py", "DYN1001"),
    ("bad_scan.py", "DYN1002"),
    ("bad_nest.py", "DYN1003"),
    ("bad_invariant.py", "DYN1004"),
    ("bad_except.py", "DYN1005"),
    ("bad_dead.py", "DYN1006"),
])
def test_fixture_trips_rule(fixture, code):
    findings, _zone = analyze_perf_paths([FIXTURES / fixture])
    assert code in codes(findings), codes(findings)


def test_fixture_counts_exact():
    findings, _zone = analyze_perf_paths([FIXTURES / "bad_scan.py"])
    assert codes(findings) == ["DYN1002"] * 3


def test_findings_carry_heat_detail():
    findings, _zone = analyze_perf_paths([FIXTURES / "bad_alloc.py"])
    for f in findings:
        assert f.detail["heat"] >= 2
        assert f.detail["zone_kind"] == "directive"


def test_cold_code_never_flagged(tmp_path):
    # same body as bad_alloc, but no directive and no hot path: silent
    findings = analyze_source(tmp_path, """
        def drain(events):
            total = 0
            for ev in events:
                staged = list(ev.payload)
                total += len(staged)
            return total
    """)
    assert findings == []


# ----------------------------------------------------------------------
# acceptance: the real tree is clean
# ----------------------------------------------------------------------

def test_real_tree_clean():
    findings, zone = analyze_perf_paths([SRC / "repro", ROOT / "examples"])
    assert findings == [], [f.render() for f in findings]
    assert len(zone) > 50  # the hot zone is substantial, not degenerate


# ----------------------------------------------------------------------
# suppression, baselines, zone registry
# ----------------------------------------------------------------------

def test_suppress_same_line(tmp_path):
    findings = analyze_source(tmp_path, """
        def hot(events):  # dyn: hot
            for ev in events:
                staged = list(ev.payload)  # dyn: ok(DYN1001)
                print(staged)
    """)
    assert "DYN1001" not in codes(findings)


def test_suppress_line_above(tmp_path):
    findings = analyze_source(tmp_path, """
        def hot(events):  # dyn: hot
            for ev in events:
                # snapshot is semantic here  # dyn: ok(DYN1001)
                staged = list(ev.payload)
                print(staged)
    """)
    assert "DYN1001" not in codes(findings)


def test_baseline_roundtrip(tmp_path, capsys):
    bad = str(FIXTURES / "bad_alloc.py")
    baseline = tmp_path / "perf-baseline.json"
    rc = main(["check", "--quiet", "--write-baseline", str(baseline), bad])
    assert rc == 1
    assert len(json.loads(baseline.read_text())["findings"]) == 3
    capsys.readouterr()
    rc = main(["check", "--baseline", str(baseline), bad])
    assert rc == 0
    assert "3 baselined" in capsys.readouterr().out


def test_program_zone_excludes_the_harness_but_not_its_fixtures():
    program = ZONES[RULES["DYN1003"].zone]
    assert RULES["DYN704"].zone == RULES["DYN501"].zone == program.name
    inside = ["src/repro/mpi/comm.py", "examples/failover.py", "prog.py",
              "tests/fixtures/perf/bad_alloc.py"]
    outside = ["tests/test_perf.py", "benchmarks/bench_micro.py",
               "benchmarks/e2e/probes.py"]
    assert all(program.contains(pathlib.Path(p)) for p in inside)
    assert not any(program.contains(pathlib.Path(p)) for p in outside)


# ----------------------------------------------------------------------
# profile re-ranking
# ----------------------------------------------------------------------

def _write_trace(tmp_path):
    # two spans on rank track 0: 1s of comm, 3s of compute
    trace = tmp_path / "trace.jsonl"
    trace.write_text("\n".join([
        json.dumps({"ph": "X", "ts": 0.0, "dur": 1.0, "cat": "mpi",
                    "pid": 0, "tid": 0, "name": "send"}),
        json.dumps({"ph": "X", "ts": 1.0, "dur": 3.0, "cat": "compute",
                    "pid": 0, "tid": 0, "name": "cycle.compute"}),
    ]) + "\n")
    return trace


def test_load_profile_shares(tmp_path):
    shares = load_profile(_write_trace(tmp_path))
    assert shares == pytest.approx({"comm": 0.25, "compute": 0.75})


def test_profile_attaches_shares_and_reranks(tmp_path):
    comm_hot = tmp_path / "comm.py"
    comm_hot.write_text(textwrap.dedent("""
        def net_drain(events):  # dyn: hot
            for ev in events:
                staged = list(ev.payload)
                print(staged)
    """))
    shares = {"comm": 0.9, "other": 0.1}
    findings, _zone = analyze_perf_paths([comm_hot], profile=shares)
    assert findings
    # tmp files land in phase "other"; the share is still recorded
    assert all(f.detail["profile_share"] == 0.1 for f in findings)


# ----------------------------------------------------------------------
# CLI contract
# ----------------------------------------------------------------------

def test_cli_clean_exit_zero():
    r = _cli("check", "src/repro", "examples")
    assert r.returncode == 0, r.stdout + r.stderr
    assert "check: clean" in r.stdout


def test_cli_findings_exit_one_and_json():
    r = _cli("check", "--json", "tests/fixtures/perf")
    assert r.returncode == 1
    payload = json.loads(r.stdout)
    assert payload["count"] == len(payload["findings"]) > 0
    assert payload["hot_functions"] > 0
    keys = [(f["path"], f["line"], f["code"]) for f in payload["findings"]]
    assert keys == sorted(keys)
    # byte determinism: a second run produces identical output
    r2 = _cli("check", "--json", "tests/fixtures/perf")
    strip = lambda s: "\n".join(
        l for l in s.splitlines() if "elapsed" not in l
    )
    assert strip(r.stdout) == strip(r2.stdout)


def test_cli_bad_profile_exit_two(tmp_path):
    r = _cli("check", "--profile", "/nonexistent/trace.json", "src/repro")
    assert r.returncode == 2
    assert "cannot load profile" in r.stderr


def test_cli_profile_reports_shares(tmp_path):
    trace = _write_trace(tmp_path)
    r = _cli("check", "--json", "--profile", str(trace), "src/repro")
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["profile"] == {"comm": 0.25, "compute": 0.75}


def test_cli_max_seconds_budget():
    r = _cli("check", "--max-seconds", "0.000001", "tests/fixtures/perf")
    assert r.returncode == 2
    assert "over the" in r.stderr
