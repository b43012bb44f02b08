"""dynrace tests: happens-before construction over communication
traces, every DYN70x code on its seeded-bad fixture, the acceptance
check that the real tree is clean, suppression + baseline handling,
the CLI exit-code/JSON contract, and the perturbation harness —
schedule invariance of the canonical removal run, and the DYN701
fixture's race reproduced as a byte-level trace diff."""

import json
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.__main__ import analyze, main
from repro.analysis.flow.callgraph import load_registry
from repro.analysis.flow.collectives import CollectiveAnalyzer
from repro.analysis.flow.domain import CommEvent
from repro.analysis.race.hb import RaceEvent, collect_events, may_match
from repro.analysis.race.perturb import run_perturbed
from repro.simcluster.kernel import Perturb, perturb_from_env

ROOT = pathlib.Path(__file__).parent.parent
SRC = ROOT / "src"
FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "race"
ENV = {"PYTHONPATH": str(SRC)}


def analyze_race_paths(paths):
    return analyze(paths)[0]


def analyze_source(tmp_path, code, name="prog.py"):
    f = tmp_path / name
    f.write_text(textwrap.dedent(code))
    return analyze_race_paths([f])


def codes(findings):
    return sorted(f.code for f in findings)


def trace_of(tmp_path, code, root):
    f = tmp_path / "prog.py"
    f.write_text(textwrap.dedent(code))
    registry = load_registry([f])
    fi = next(fi for fi in registry.roots() if fi.qualname == root)
    return CollectiveAnalyzer(registry).summarize(fi, frozenset()).trace


# ----------------------------------------------------------------------
# happens-before model
# ----------------------------------------------------------------------

def test_hb_epochs_segment_at_collectives(tmp_path):
    trace = trace_of(tmp_path, """
        def seg_program(ep):
            yield from ep.send(1, tag=0, payload=1.0)
            x = yield from ep.allreduce_active(1.0)
            yield from ep.send(1, tag=0, payload=2.0)
    """, "seg_program")
    events = []
    collect_events(trace, "seg_program", out=events)
    sends = [e for e in events if e.event.kind == "send"]
    assert [e.epoch for e in sends] == [0, 1]


def test_hb_rank_pin_reaches_events(tmp_path):
    trace = trace_of(tmp_path, """
        def pin_program(ep):
            if ep.rank == 0:
                data, st = yield from ep.recv()
            else:
                yield from ep.send(0, tag=1, payload=1.0)
    """, "pin_program")
    events = []
    collect_events(trace, "pin_program", out=events)
    recv = next(e for e in events if e.event.kind == "recv")
    send = next(e for e in events if e.event.kind == "send")
    assert recv.pin == 0      # true arm of `ep.rank == 0`
    assert send.pin is None   # else arm: any non-zero rank


def test_may_match_epoch_and_tag_rules():
    def ev(kind, peer, tag):
        return CommEvent(kind=kind, scope="p2p", name=kind,
                         peer=peer, tag=tag)

    recv = RaceEvent(ev("recv", "*", "*"), epoch=0, pin=None,
                     in_loop=False, root="r")
    early = RaceEvent(ev("send", "0", "1"), epoch=0, pin=None,
                      in_loop=False, root="r")
    late = RaceEvent(ev("send", "0", "1"), epoch=1, pin=None,
                     in_loop=False, root="r")
    looped = RaceEvent(ev("send", "0", "1"), epoch=1, pin=None,
                       in_loop=True, root="r")
    assert may_match(early, recv)
    # a send strictly after the receive's closing collective cannot
    # supply it — unless loops blur the epoch structure
    assert not may_match(late, recv)
    assert may_match(looped, recv)
    # concrete tag mismatch excludes
    tagged_recv = RaceEvent(ev("recv", "*", "7"), epoch=0, pin=None,
                            in_loop=False, root="r")
    assert not may_match(early, tagged_recv)


def test_single_pinned_sender_is_not_a_race(tmp_path):
    # one pinned send site = one source: non-overtaking defines the
    # winner, so the wildcard receive is not flagged
    findings = analyze_source(tmp_path, """
        def pair_program(ep):
            if ep.rank == 0:
                data, st = yield from ep.recv()
            elif ep.rank == 1:
                yield from ep.send(0, tag=1, payload=1.0)
    """)
    assert codes(findings) == []


# ----------------------------------------------------------------------
# every code on its seeded-bad fixture
# ----------------------------------------------------------------------

@pytest.mark.parametrize("fixture, code", [
    ("bad_dyn701_any_source.py", "DYN701"),
    ("bad_dyn702_sched_branch.py", "DYN702"),
    ("bad_dyn703_set_order.py", "DYN703"),
    ("bad_dyn704_rng.py", "DYN704"),
    ("bad_dyn705_float_order.py", "DYN705"),
])
def test_fixture_is_flagged(fixture, code):
    findings = analyze_race_paths([FIXTURES / fixture])
    assert code in codes(findings)


def test_dyn701_shows_racing_sites():
    findings = analyze_race_paths([FIXTURES / "bad_dyn701_any_source.py"])
    f = next(f for f in findings if f.code == "DYN701")
    assert f.side_by_side is not None


def test_real_tree_is_clean():
    assert analyze_race_paths([SRC / "repro", ROOT / "examples"]) == []


# ----------------------------------------------------------------------
# suppression + baseline
# ----------------------------------------------------------------------

def test_line_suppression_marker(tmp_path):
    findings = analyze_source(tmp_path, """
        import numpy as np

        def seeded_program(ep):
            rng = np.random.default_rng(7)  # dyn: ok(DYN704)
            yield from ep.send(0, tag=0, payload=rng.random(4))
    """)
    assert findings == []


def test_baseline_roundtrip(tmp_path, capsys):
    bad = str(FIXTURES / "bad_dyn704_rng.py")
    baseline = tmp_path / "race-baseline.json"
    rc = main(["check", "--write-baseline", str(baseline), bad])
    assert rc == 1  # findings still reported on the writing run
    data = json.loads(baseline.read_text())
    assert len(data["findings"]) == 3
    capsys.readouterr()
    rc = main(["check", "--baseline", str(baseline), bad])
    assert rc == 0
    assert "3 baselined" in capsys.readouterr().out


# ----------------------------------------------------------------------
# CLI contract: exit codes and --json
# ----------------------------------------------------------------------

def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True, text=True, env=ENV, cwd=ROOT,
    )


def test_cli_race_clean_exits_zero(tmp_path):
    clean = tmp_path / "fine.py"
    clean.write_text(textwrap.dedent("""
        def fine_program(ep):
            yield from ep.send(0, tag=0, payload=1.0)
    """))
    proc = _cli("check", str(clean))
    assert proc.returncode == 0
    assert "clean" in proc.stdout


def test_cli_race_findings_exit_one_and_json():
    proc = _cli("check", "--json", str(FIXTURES / "bad_dyn703_set_order.py"))
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert [f["code"] for f in payload["findings"]] == ["DYN703"]
    assert all("fingerprint" in f for f in payload["findings"])


def test_cli_race_usage_error_exits_two():
    proc = _cli("check")  # missing paths
    assert proc.returncode == 2


def test_cli_lint_baseline_roundtrip(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(textwrap.dedent("""
        def f(ep):
            ep.send(0, tag=0, payload=1.0)
    """))
    baseline = tmp_path / "lint-baseline.json"
    proc = _cli("check", "--write-baseline", str(baseline), str(bad))
    assert proc.returncode == 1  # DYN001 reported while writing
    proc = _cli("check", "--baseline", str(baseline), str(bad))
    assert proc.returncode == 0
    assert "1 baselined" in proc.stdout


# ----------------------------------------------------------------------
# perturbation harness
# ----------------------------------------------------------------------

def test_perturb_choose_is_deterministic():
    p = Perturb(42)
    picks = [p.choose(3, (1, "x", 7)) for _ in range(3)]
    assert picks[0] == picks[1] == picks[2]
    assert 0 <= picks[0] < 3
    # a different seed is allowed to disagree; a different key usually does
    assert any(Perturb(s).choose(3, (1, "x", 7)) != picks[0]
               or Perturb(s).choose(3, (2, "y", 9)) != p.choose(3, (2, "y", 9))
               for s in (1, 2, 3))


def test_perturb_from_env(monkeypatch):
    from repro.errors import SimulationError

    monkeypatch.delenv("DYNMPI_PERTURB", raising=False)
    assert perturb_from_env() is None
    monkeypatch.setenv("DYNMPI_PERTURB", "")
    assert perturb_from_env() is None
    monkeypatch.setenv("DYNMPI_PERTURB", "7")
    assert perturb_from_env().seed == 7
    monkeypatch.setenv("DYNMPI_PERTURB", "x")
    with pytest.raises(SimulationError):
        perturb_from_env()


def test_match_ties_counted_on_the_race_fixture():
    from repro.analysis.race.perturb import _load_target
    from repro.config import ClusterSpec, NodeSpec
    from repro.mpi import run_spmd
    from repro.mpi.launcher import make_comm
    from repro.simcluster import Cluster

    mod = _load_target(str(FIXTURES / "bad_dyn701_any_source.py"))
    cluster = Cluster(ClusterSpec(n_nodes=3, node=NodeSpec(speed=1e8)))
    comm = make_comm(cluster)
    procs = [
        cluster.sim.spawn(
            mod.farm_program(comm.endpoint(r)),
            name=f"rank{r}", node=cluster.nodes[comm.node_of(r)],
        )
        for r in range(comm.size)
    ]
    cluster.sim.run_all(procs)
    # both workers' envelopes were queued when the wildcard matched
    assert comm.match_ties >= 1


def test_removal_trace_is_schedule_invariant():
    report = run_perturbed("removal", seeds=(1, 2, 3))
    assert report.invariant
    assert report.trace_lines > 0


def test_dyn701_fixture_races_under_perturbation():
    report = run_perturbed(
        str(FIXTURES / "bad_dyn701_any_source.py"), seeds=(1, 2, 3, 4, 5)
    )
    diffs = [r for r in report.runs if not r.identical]
    assert diffs, "the seeded ANY_SOURCE race never surfaced"
    # the diff is the matched source flipping inside an mpi.recv span
    assert any('"src"' in r.first_diff for r in diffs)


def test_cli_perturb_expect_diff_contract():
    target = str(FIXTURES / "bad_dyn701_any_source.py")
    proc = _cli("perturb", "--target", target, "--seeds", "1,2,3,4,5",
                "--expect-diff", "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["tool"] == "dynrace-perturb"
    assert payload["invariant"] is False
    # without --expect-diff the same racy target fails the gate
    proc = _cli("perturb", "--target", target, "--seeds", "1,2,3,4,5")
    assert proc.returncode == 1
