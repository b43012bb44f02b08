"""The one command-line contract (``repro.cli``) across the five
``python -m repro.<tool>`` entry points: every kind of argparse failure
returns 2 from an in-process ``main([...])`` with exactly one
``<prog>: ...`` line on stderr and nothing on stdout — no usage text
and no ``SystemExit``.  Exit 0/1 paths are each tool's own tests'."""

import importlib

import pytest

from repro.cli import ArgumentParser, cli_entry
from repro.errors import ConfigError, SanitizerError

#: (tool, failure kind) -> argv.  The farm has no subcommands: a stray
#: positional is its unknown command, and nothing can be missing.
CASES = {
    ("analysis", "bad-type"): ["check", "--max-seconds", "abc", "x.py"],
    ("analysis", "unknown-option"): ["check", "--bogus", "x.py"],
    ("analysis", "missing-argument"): ["check"],
    ("analysis", "unknown-command"): ["bogus"],
    ("analysis", "missing-command"): [],
    ("campaign", "bad-type"): ["fuzz", "--seed", "abc"],
    ("campaign", "unknown-option"): ["status", "--dir", "d", "--bogus"],
    ("campaign", "missing-argument"): ["status"],
    ("campaign", "unknown-command"): ["bogus"],
    ("campaign", "missing-command"): [],
    ("experiments", "bad-type"): ["fig3", "--seed", "abc"],
    ("experiments", "unknown-option"): ["fig3", "--bogus"],
    ("experiments", "missing-argument"): ["fig4", "--scale"],
    ("experiments", "unknown-command"): ["fig99"],
    ("experiments", "missing-command"): [],
    ("farm", "bad-type"): ["--jobs", "abc"],
    ("farm", "unknown-option"): ["--bogus"],
    ("farm", "missing-argument"): ["--jobs"],
    ("farm", "unknown-command"): ["run"],
    ("obs", "bad-type"): ["export", "--nodes", "abc"],
    ("obs", "unknown-option"): ["export", "--bogus"],
    ("obs", "missing-argument"): ["summarize"],
    ("obs", "unknown-command"): ["bogus"],
    ("obs", "missing-command"): [],
}


@pytest.mark.parametrize("tool, kind", sorted(CASES),
                         ids=[f"{t}-{k}" for t, k in sorted(CASES)])
def test_argparse_failure_is_exit_two_and_one_line(tool, kind, capsys):
    main = importlib.import_module(f"repro.{tool}.__main__").main
    assert main(CASES[tool, kind]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"{tool}: ") and err.count("\n") == 1


def test_perturb_bad_seeds_and_target_are_exit_two(tmp_path, capsys):
    from repro.analysis.__main__ import main

    assert main(["perturb", "--seeds", "1,x"]) == 2
    assert main(["perturb", "--seeds", ","]) == 2
    no_fn = tmp_path / "target.py"
    no_fn.write_text("x = 1\n")
    assert main(["perturb", "--target", str(no_fn), "--seeds", "1"]) == 2
    assert main(["perturb", "--target", str(tmp_path / "nope.py"),
                 "--seeds", "1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 4 and all(ln.startswith("analysis: ") for ln in err)
    assert "comma-separated integers" in err[0]
    assert "must define run_traced()" in err[2]


def test_plan_unreadable_or_malformed_spec_is_exit_two(tmp_path, capsys):
    from repro.analysis.__main__ import main

    bad = tmp_path / "spec.json"
    bad.write_text("{not json")
    assert main(["plan", str(bad)]) == 2
    bad.write_text("{}")
    assert main(["plan", str(bad)]) == 2
    assert main(["plan", str(tmp_path / "nope.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all(ln.startswith("analysis: ") for ln in err)
    assert "malformed spec" in err[0] and "KeyError('n_rows')" in err[1]


def test_wrapper_keeps_bugs_as_tracebacks_and_joins_lines(capsys):
    @cli_entry("tool")
    def main(argv=None):
        parser = ArgumentParser(prog="tool")
        parser.add_argument("n", type=int)
        n = parser.parse_args(argv).n
        if n == 1:
            raise SanitizerError("two\nlines")
        if n == 2:
            raise KeyError("a bug")
        return 0

    assert main(["0"]) == 0
    assert main(["1"]) == 2
    assert capsys.readouterr().err == "tool: two lines\n"
    with pytest.raises(KeyError):
        main(["2"])
    # the parser raises rather than exits, and so do its subparsers
    sub = ArgumentParser(prog="tool").add_subparsers().add_parser("x")
    sub.add_argument("--n", type=int)
    with pytest.raises(ConfigError, match="invalid int value"):
        sub.parse_args(["--n", "y"])
