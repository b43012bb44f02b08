"""Smoke tests: every example script must run to completion and print
its headline output (examples are documentation — they must not rot)."""

import pathlib
import runpy

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart.py", capsys)
    assert "with Dyn-MPI" in out
    assert "speedup" in out
    assert "redistribute" in out


def test_node_removal(capsys):
    out = run_example("node_removal.py", capsys)
    assert "drop" in out
    assert "physically removed" in out


def test_unbalanced_particles(capsys):
    out = run_example("unbalanced_particles.py", capsys)
    assert "hot rows" in out
    assert "redistribute" in out


def test_cg_solver(capsys):
    out = run_example("cg_solver.py", capsys)
    assert "matches the sequential solver" in out


def test_failover(capsys):
    out = run_example("failover.py", capsys)
    assert "crash_recovery" in out
    assert "bitwise-equal to the crash-free run: YES" in out


def test_scheduler_timeline(capsys):
    out = run_example("scheduler_timeline.py", capsys)
    assert "CPU timelines" in out
    assert "n0 |" in out and "n1 |" in out
