"""The dynfarm CLI (``python -m repro.farm``), in process: every policy
through a churned, sanitized run; a perturbed run; byte-deterministic
trace export in both formats; and bad input as exit 2 with one
``farm: ...`` line instead of a traceback."""

import pytest

from repro.farm.__main__ import main
from repro.farm.policies import POLICIES

SMALL = ["--jobs", "400", "--nodes", "8"]


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_every_policy_survives_a_worker_kill_under_the_sanitizer(
        policy, capsys):
    rc = main(["--policy", policy, *SMALL, "--crash", "3@2", "--sanitize"])
    out = capsys.readouterr().out
    assert rc == 0
    assert f"policy={policy} jobs=400/400" in out
    assert "dead=1" in out and "digest=ok" in out


def test_perturbed_run_keeps_the_digest(capsys):
    assert main(["--policy", "rma", *SMALL, "--perturb", "1"]) == 0
    assert "digest=ok" in capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["chrome", "jsonl"])
def test_trace_export_is_byte_deterministic(fmt, tmp_path, capsys):
    paths = [tmp_path / f"farm_{i}.{fmt}" for i in (0, 1)]
    for path in paths:
        assert main(["--policy", "rma", "--jobs", "200", "--nodes", "6",
                     "--trace", str(path), "--format", fmt]) == 0
    assert f"events to {paths[1]}" in capsys.readouterr().out
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].stat().st_size > 0


@pytest.mark.parametrize("argv, complaint", [
    (["--policy", "bogus"], "unknown farm policy 'bogus'"),
    (["--crash", "3"], "argument --crash: expected NODE@CYCLE"),
    (["--crash", "x@y"], "argument --crash: expected NODE@CYCLE"),
    (["--nodes", "4", "--crash", "9@2"], "--crash names node 9"),
    (["--nodes", "0"], "at least one node"),
    (["--seed", "-1"], "seed must be non-negative"),
    (["--nodes", "4", "--jobs", "10", "--trace", "/nonexistent/x.json"],
     "No such file or directory: '/nonexistent/x.json'"),
], ids=["policy", "crash-without-cycle", "crash-not-integers",
        "crash-no-such-node", "no-nodes", "seed-negative",
        "trace-unwritable"])
def test_bad_input_is_exit_two_and_one_line(argv, complaint, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("farm: ") and complaint in err
    assert err.count("\n") == 1
