"""Tests for the `python -m repro.experiments` figure runner."""

import pytest

from repro.experiments.__main__ import main


def test_cli_fig3(capsys):
    assert main(["fig3", "--scale", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "Figure 3" in out
    assert "cont/proj work" in out


def test_cli_fig4_subset(capsys):
    assert main(["fig4", "--scale", "0.12", "--apps", "jacobi"]) == 0
    out = capsys.readouterr().out
    assert "Figure 4" in out
    assert "jacobi" in out
    assert "cg" not in out.splitlines()[2]


def test_cli_ablations(capsys):
    assert main(["ablations"]) == 0
    out = capsys.readouterr().out
    assert "Successive balancing" in out
    assert "vmstat" in out


def test_cli_rejects_unknown_figure(capsys):
    assert main(["fig99"]) == 2
    assert capsys.readouterr().err.startswith("experiments: ")


@pytest.mark.parametrize("argv, env, names", [
    (["fig4", "--apps", "bogus"], None, "unknown app 'bogus'"),
    (["fig4", "--scale", "7"], None, "(0, 1], got '7'"),
    (["fig4", "--scale", "0"], None, "(0, 1], got '0'"),
    (["fig4", "--scale", "-1"], None, "(0, 1], got '-1'"),
    (["fig4"], "abc", "DYNMPI_BENCH_SCALE must be a number in (0, 1], "
                      "got 'abc'"),
    (["fig4", "--seed", "-1"], None, "seed must be non-negative, got -1"),
], ids=["apps-bogus", "scale-7", "scale-0", "scale-negative", "env-abc",
        "seed-negative"])
def test_cli_bad_input_is_one_line_and_exit_two(monkeypatch, capsys,
                                                argv, env, names):
    if env is not None:
        monkeypatch.setenv("DYNMPI_BENCH_SCALE", env)
    assert main(argv) == 2   # before anything runs
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("experiments: ") and err.count("\n") == 1
    assert names in err


def test_cli_seed_flag_threads_into_figures(capsys):
    assert main(["fig4", "--scale", "0.12", "--apps", "jacobi",
                 "--seed", "3"]) == 0
    seeded = capsys.readouterr().out
    assert main(["fig4", "--scale", "0.12", "--apps", "jacobi",
                 "--seed", "3"]) == 0
    again = capsys.readouterr().out
    assert seeded == again          # same seed -> identical tables
