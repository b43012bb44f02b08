"""CLI tests for ``python -m repro.obs``: export determinism, the
schema-validation gate, summarize/diff output and error exit codes."""

import json

import pytest

from repro.obs.__main__ import main

# small but still adaptive: the grid is big enough that the forced
# removal scenario redistributes before the run ends
ARGS = ["--nodes", "3", "--grid", "96", "--iters", "24"]


@pytest.fixture(scope="module")
def chrome_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("obs") / "trace.json"
    assert main(["export", *ARGS, "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def jsonl_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("obs") / "trace.jsonl"
    assert main(["export", *ARGS, "--format", "jsonl",
                 "--out", str(path)]) == 0
    return path


def test_export_is_byte_deterministic(chrome_path, tmp_path):
    again = tmp_path / "again.json"
    assert main(["export", *ARGS, "--out", str(again)]) == 0
    assert again.read_bytes() == chrome_path.read_bytes()
    # the scheduler and NIC tracks and the load mark are really there
    names = {e["name"] for e in json.loads(again.read_text())["traceEvents"]}
    assert {"cpu.rank0", "cpu.cp0@n0", "net.msg", "load.start"} <= names


def test_export_to_stdout(capsys):
    assert main(["export", "--nodes", "2", "--grid", "64",
                 "--iters", "8"]) == 0
    out = capsys.readouterr().out
    trace = json.loads(out)
    assert trace["traceEvents"]


def test_validate_accepts_the_export(chrome_path, capsys):
    assert main(["validate", str(chrome_path)]) == 0
    assert "valid Chrome trace" in capsys.readouterr().out


def test_validate_rejects_bad_trace(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"traceEvents": [
        {"name": "x", "ph": "Z", "ts": 0, "pid": 0, "tid": 0},
    ]}))
    assert main(["validate", str(bad)]) == 1
    assert "schema violation" in capsys.readouterr().err
    assert main(["validate", str(tmp_path / "missing.json")]) == 1


def test_summarize_text_and_json(chrome_path, jsonl_path, capsys):
    assert main(["summarize", str(chrome_path)]) == 0
    out = capsys.readouterr().out
    assert "cost attribution" in out
    for phase in ("compute", "comm", "redist"):
        assert phase in out

    assert main(["summarize", str(jsonl_path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["wall"] > 0
    assert set(report["per_rank"]) == {"0", "1", "2"}
    # the jsonl meta line carried metrics into the summary
    assert report["metrics"]["counters"]


def test_summarize_unreadable_exits_2(tmp_path, capsys):
    assert main(["summarize", str(tmp_path / "nope.json")]) == 2
    assert capsys.readouterr().err.startswith("obs: ")


def test_diff_self_is_zero(chrome_path, capsys):
    assert main(["diff", str(chrome_path), str(chrome_path),
                 "--json"]) == 0
    diff = json.loads(capsys.readouterr().out)
    assert diff["wall"]["delta"] == 0
    assert all(row["delta"] == 0 for row in diff["phases"].values())


def test_diff_formats_deltas(chrome_path, jsonl_path, capsys):
    # chrome vs jsonl of the same run: still identical attributions
    assert main(["diff", str(chrome_path), str(jsonl_path)]) == 0
    out = capsys.readouterr().out
    assert "per-phase deltas" in out
    assert "+0.0%" in out


def test_diff_unreadable_exits_2(chrome_path, tmp_path, capsys):
    assert main(["diff", str(chrome_path),
                 str(tmp_path / "nope.json")]) == 2
    assert capsys.readouterr().err.startswith("obs: ")


@pytest.mark.parametrize("argv, complaint", [
    (["export", "--nodes", "0"], "n_nodes must be >= 1, got 0"),
    (["export", "--grid", "0"], "n must be >= 1, got 0"),
    (["export", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["export", "--iters", "0"], "iters must be >= 1, got 0"),
    (["export", "--iters", "-3"], "iters must be >= 1, got -3"),
    (["export", "--out", "/nonexistent/x.json"], "No such file or directory"),
    (["summarize", "NOT_A_TRACE"], "'traceEvents' must be a list of objects"),
    (["diff", "NOT_A_TRACE", "NOT_A_TRACE"], "'traceEvents' must be a list"),
], ids=["no-nodes", "no-grid", "seed-negative", "no-iters", "iters-negative",
        "out-unwritable", "summarize-not-a-trace", "diff-not-a-trace"])
def test_bad_input_is_exit_two_and_one_line(argv, complaint, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"traceEvents": 3}')
    argv = [str(bad) if a == "NOT_A_TRACE" else a for a in argv]
    assert main(argv) == 2   # before anything runs
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("obs: ") and complaint in err
    assert err.count("\n") == 1
