"""The dyncamp CLI: run/resume/status/report/fuzz, exit codes, and the
checked-in campaign spec files."""

import json
import pathlib

import pytest

from repro.campaign.__main__ import main
from repro.campaign.space import load_space

CAMPAIGNS = pathlib.Path(__file__).parent.parent / "benchmarks" / "campaigns"

SPEC = {
    "name": "clitest",
    "params": {"app": ["jacobi", "sor"], "seed": [0, 1]},
    "fixed": {"size": 16, "cycles": 4, "n_nodes": 2},
}


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC))
    return path


def test_run_status_report_round_trip(spec_file, tmp_path, capsys):
    cdir = tmp_path / "camp"
    assert main(["run", str(spec_file), "--dir", str(cdir),
                 "--workers", "1", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "4/4 combos done" in out
    assert (cdir / "BENCH_campaign.json").exists()

    assert main(["status", "--dir", str(cdir)]) == 0
    assert "4/4 done" in capsys.readouterr().out

    assert main(["report", "--dir", str(cdir),
                 "--bench-dir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    a = (cdir / "BENCH_campaign.json").read_bytes()
    b = (tmp_path / "out" / "BENCH_campaign.json").read_bytes()
    assert a == b


def test_interrupted_run_then_resume_byte_identical(spec_file, tmp_path,
                                                    capsys):
    ref_dir, cut_dir = tmp_path / "ref", tmp_path / "cut"
    assert main(["run", str(spec_file), "--dir", str(ref_dir),
                 "--workers", "1", "--quiet"]) == 0
    # stop after 2 of 4 combos — the CLI reports how to resume
    assert main(["run", str(spec_file), "--dir", str(cut_dir),
                 "--workers", "1", "--quiet", "--max-combos", "2"]) == 0
    out = capsys.readouterr().out
    assert "stopped early" in out and "resume" in out
    assert not (cut_dir / "BENCH_campaign.json").exists()
    assert main(["resume", "--dir", str(cut_dir),
                 "--workers", "1", "--quiet"]) == 0
    assert (cut_dir / "BENCH_campaign.json").read_bytes() == \
        (ref_dir / "BENCH_campaign.json").read_bytes()


def test_quarantine_yields_exit_code_1(tmp_path, capsys):
    spec = dict(SPEC)
    spec["params"] = {"app": ["jacobi", "boom"], "seed": [0]}
    path = tmp_path / "poison.json"
    path.write_text(json.dumps(spec))
    rc = main(["run", str(path), "--dir", str(tmp_path / "c"),
               "--workers", "1", "--quiet", "--max-tries", "1"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "quarantined" in out and "boom" in out


def test_usage_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["run", str(bad), "--dir", str(tmp_path / "c")]) == 2
    assert main(["status", "--dir", str(tmp_path / "nope")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(ln.startswith("campaign: ") for ln in err)


@pytest.mark.parametrize("fixed, message", [
    ({"cycles": -1}, "cycles >= 1"),
    ({"size": 0}, "size must be >= 8"),
    ({"n_nodes": 0}, "n_nodes must be >= 1"),
    ({"load": "n1@oops"}, "bad trigger"),
])
def test_bad_shared_value_is_a_spec_error_not_a_quarantine(
        tmp_path, capsys, fixed, message):
    """What every combo shares cannot be one poisoned combo: exit 2
    with one line, before a campaign directory exists."""
    spec = dict(SPEC, fixed={**SPEC["fixed"], **fixed})
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["run", str(path), "--dir", str(tmp_path / "c"),
                 "--workers", "1", "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("campaign: ") and err.count("\n") == 1
    assert message in err
    assert not (tmp_path / "c").exists()


def test_fuzz_subcommand_clean_and_index_form(tmp_path, capsys):
    assert main(["fuzz", "--seed", "1", "--iterations", "2",
                 "--workers", "1", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "2 scenario(s), 0 failure(s)" in out
    # the repro-line form: run exactly one index
    assert main(["fuzz", "--seed", "1", "--index", "0",
                 "--workers", "1"]) == 0
    assert "1 scenario(s)" in capsys.readouterr().out
    # a clean fuzz leaves no failures file behind
    assert not (tmp_path / "failures.jsonl").exists() or \
        not (tmp_path / "failures.jsonl").read_text().strip()


def test_checked_in_campaign_specs_are_valid():
    demo = load_space(CAMPAIGNS / "demo.json")
    assert len(demo) >= 200                  # the acceptance-scale sweep
    smoke = load_space(CAMPAIGNS / "smoke.json")
    assert 16 <= len(smoke) <= 48            # CI-sized
    # every declared value must survive resolution
    from repro.campaign.scenarios import resolve_params
    from repro.campaign.space import expand
    for combo in expand(smoke):
        resolve_params(combo.as_dict())
    for combo in expand(demo)[:20]:
        resolve_params(combo.as_dict())
