"""dyncamp: parameter space, journaled sweeper, engine, aggregation,
and the fuzzer's invariant checkers.

The two acceptance properties from the campaign design are pinned
here: (1) a sweep killed mid-run and restarted skips completed combos
and produces a byte-identical final aggregate, and (2) a combo whose
worker raises is retried a bounded number of times and then
quarantined — visible in the report — instead of wedging the sweep.
"""

import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.campaign import (
    Combo,
    Engine,
    ParamSpace,
    ParamSweeper,
    combo_slug,
    expand,
    run_combo,
    safe_run_combo,
)
from repro.campaign.fuzz import (
    SplitMix64,
    fuzz_one,
    fuzz_params,
    load_corpus,
    replay_one,
    run_fuzz,
    run_replay,
)
from repro.campaign.report import render_status, render_summary
from repro.campaign.results import aggregate_results, render_bench_json
from repro.campaign.scenarios import (
    build_scenario,
    parse_failure,
    parse_load,
    resolve_params,
)
from repro.campaign.space import load_space
from repro.errors import ConfigError
from repro.simcluster.rng import mix64

TINY = {"size": 16, "cycles": 4}


def tiny_space(name="t", **over):
    params = {"app": ["jacobi", "sor"], "n_nodes": [2, 4], "seed": [0, 1]}
    params.update(over)
    return ParamSpace(params, TINY, name=name)


# ----------------------------------------------------------------------
# space: expansion, slugs, validation
# ----------------------------------------------------------------------

def test_expand_is_deterministic_and_sorted():
    space = tiny_space()
    combos = expand(space)
    assert len(combos) == len(space) == 8
    assert combos == expand(tiny_space())
    # fixed params land in every combo; slug keys are sorted
    first = combos[0]
    assert first.as_dict()["size"] == 16
    assert first.slug == combo_slug(first.as_dict())
    keys = [frag.split("=")[0] for frag in first.slug.split(",")]
    assert keys == sorted(keys)


def test_space_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        ParamSpace({"app": []})                       # empty value list
    with pytest.raises(ConfigError):
        ParamSpace({"app": ["jacobi"]}, {"app": "sor"})  # swept+fixed
    with pytest.raises(ConfigError):
        ParamSpace({"load": ["a b"]})                 # not slug-safe
    with pytest.raises(ConfigError):
        expand(ParamSpace({"seed": [1, 1]}))          # duplicate combo


def test_load_space_round_trip(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(tiny_space(name="rt").to_json()))
    space = load_space(path)
    assert space.name == "rt"
    assert [c.slug for c in expand(space)] == \
        [c.slug for c in expand(tiny_space(name="rt"))]
    with pytest.raises(ConfigError):
        load_space(tmp_path / "missing.json")


# ----------------------------------------------------------------------
# scenarios: DSL parsing and construction
# ----------------------------------------------------------------------

def test_parse_load_dsl():
    assert parse_load("none") is None
    script = parse_load("n1@c2x3+n0@c3-c6")
    kinds = [(t.node, t.cycle, t.action, t.count)
             for t in script.cycle_triggers]
    assert (1, 2, "start", 3) in kinds
    assert (0, 3, "start", 1) in kinds
    assert (0, 6, "stop", 1) in kinds
    with pytest.raises(ConfigError):
        parse_load("bogus")


def test_parse_failure_dsl():
    assert parse_failure("none") is None
    script = parse_failure("slow:n0@c2x2+crash:n1@c5")
    acts = [(f.node, f.cycle, f.action) for f in script.cycle_triggers]
    assert (0, 2, "slowdown") in acts
    assert (1, 5, "crash") in acts
    with pytest.raises(ConfigError):
        parse_failure("melt:n0@c2")          # unknown kind
    with pytest.raises(ConfigError):
        parse_failure("crash:n0@c2-c4")      # faults are point events


def test_resolve_params_validates():
    full = resolve_params({"app": "cg"})
    assert full["n_nodes"] == 4 and full["check"] == 1
    with pytest.raises(ConfigError):
        resolve_params({"app": "fortran"})
    with pytest.raises(ConfigError):
        resolve_params({"typo": 1})
    with pytest.raises(ConfigError):
        resolve_params({"size": 4})


def test_build_scenario_crash_switches_to_resilience_recipe():
    calm = build_scenario({"app": "jacobi", **TINY})
    assert calm.spec.resilience is None and not calm.spec.allow_removal
    crashy = build_scenario(
        {"app": "jacobi", "size": 64, "cycles": 40,
         "failure": "crash:n2@c10"})
    assert crashy.spec.resilience is not None
    assert crashy.spec.allow_removal and crashy.spec.allow_rejoin


# ----------------------------------------------------------------------
# runner: combo execution and the worker boundary
# ----------------------------------------------------------------------

def test_run_combo_all_apps_pass_oracle():
    for app in ("jacobi", "sor", "cg", "particle"):
        row = run_combo({"app": app, "n_nodes": 2, **TINY})
        assert row["checks"]["oracle"] == "ok", app
        assert row["metrics"]["wall_time"] > 0


def test_grid_oracle_skips_a_rank_a_drop_parked():
    """Node 1 is loaded from cycle 2 and crashes at cycle 3, but a drop
    removes it (cycle 6) before its heartbeat times out: its parked rank
    returns no grid, and the oracle checks the participating one."""
    built = build_scenario(dict(app="jacobi", n_nodes=2, load="n1@c2x2",
                                failure="crash:n1@c3", cycles=10, size=16,
                                seed=0, check=1))
    result = built.run()
    assert result.n_drops == 1
    assert ["grid" in out for out in result.per_rank] == [True, False]
    assert built.oracle(result) == ""
    result.per_rank = [{}, {}]
    assert built.oracle(result) == "no rank returned a grid"


def test_run_combo_slug_is_declared_params_not_resolved():
    row = run_combo({"app": "jacobi", **TINY})
    assert row["slug"] == combo_slug({"app": "jacobi", **TINY})
    assert "n_nodes" not in row["slug"]      # default stays out of identity


def test_run_combo_is_deterministic():
    params = {"app": "sor", "n_nodes": 4, "load": "n1@c2x2", **TINY}
    a, b = run_combo(dict(params)), run_combo(dict(params))
    assert a == b


def test_safe_run_combo_converts_exceptions_to_error_rows():
    row = safe_run_combo({"app": "boom", **TINY})
    assert row["ok"] is False
    assert "ConfigError" in row["error"]
    assert row["slug"] == combo_slug({"app": "boom", **TINY})


# ----------------------------------------------------------------------
# sweeper: journal replay, claims, retry budget
# ----------------------------------------------------------------------

def test_sweeper_journal_replay_round_trip(tmp_path):
    space = tiny_space()
    with ParamSweeper.create(tmp_path / "c", space) as sw:
        combos = sw.pending()
        sw.claim(combos[0])
        sw.mark_done(combos[0].slug, {"slug": combos[0].slug,
                                      "params": combos[0].as_dict(),
                                      "metrics": {}})
        sw.claim(combos[1])
        sw.mark_error(combos[1].slug, "whoops")
    # fresh instance reconstructs everything from the journal
    with ParamSweeper.open_dir(tmp_path / "c") as sw2:
        assert combos[0].slug in sw2.done
        assert sw2.tries[combos[1].slug] == 1
        assert len(sw2.pending()) == len(combos) - 1


def test_sweeper_stale_claim_counts_as_a_try(tmp_path):
    space = tiny_space()
    with ParamSweeper.create(tmp_path / "c", space) as sw:
        victim = sw.pending()[0]
        sw.claim(victim)   # process "dies" here: no done/error journaled
    with ParamSweeper.open_dir(tmp_path / "c") as sw2:
        assert sw2.tries[victim.slug] == 1
        assert "stale claim" in sw2.errors[victim.slug]
        assert victim.slug in {c.slug for c in sw2.pending()}  # re-queued


def test_sweeper_quarantines_repeat_kill_victims(tmp_path):
    space = tiny_space()
    victim = expand(space)[0]
    for _ in range(2):
        with ParamSweeper.create(tmp_path / "c", space, max_tries=2) as sw:
            sw.claim(victim)  # die mid-combo, twice
    with ParamSweeper.open_dir(tmp_path / "c") as sw:
        assert victim.slug in sw.skipped
        # the quarantine decision itself was journaled durably
        events = [json.loads(line)["event"]
                  for line in (tmp_path / "c" / "journal.jsonl")
                  .read_text().splitlines()]
        assert "skip" in events


def test_sweeper_rejects_mismatched_directory(tmp_path):
    ParamSweeper.create(tmp_path / "c", tiny_space(name="a")).close()
    with pytest.raises(ConfigError):
        ParamSweeper.create(tmp_path / "c", tiny_space(name="b"))
    with pytest.raises(ConfigError):
        ParamSweeper.open_dir(tmp_path / "nope")


def test_torn_journal_tail_is_dropped_and_the_combo_requeued(tmp_path,
                                                             capsys):
    from repro.campaign.__main__ import main

    space = tiny_space()
    with ParamSweeper.create(tmp_path / "a", space) as sw:
        ref = Engine(sw, workers=1)
        assert ref.run().complete
        ref.aggregate(write_to=tmp_path / "a")
    with ParamSweeper.create(tmp_path / "b", space) as sw:
        assert Engine(sw, workers=1).run().complete
        all_done = set(sw.done)

    # a kill between the write and the newline: the last record (the
    # last combo's `done`) is cut in half
    journal = tmp_path / "b" / "journal.jsonl"
    data = journal.read_bytes()
    last = data.rstrip(b"\n").rsplit(b"\n", 1)[1]
    victim = json.loads(last)["slug"]
    journal.write_bytes(data[:-(len(last) // 2 + 1)])

    # status and resume go through the CLI: no traceback, exit 0
    assert main(["status", "--dir", str(tmp_path / "b")]) == 0
    assert f"{len(all_done) - 1}/{len(all_done)} done" in capsys.readouterr().out
    # the fragment was cut off the file, so nothing gets glued onto it
    assert journal.read_bytes() == data[:-(len(last) + 1)]
    with ParamSweeper.open_dir(tmp_path / "b") as sw2:
        assert sw2.done == all_done - {victim}
        assert [c.slug for c in sw2.pending()] == [victim]
        assert "stale claim" in sw2.errors[victim]
    assert main(["resume", "--dir", str(tmp_path / "b"),
                 "--workers", "1", "--quiet"]) == 0
    assert (tmp_path / "b" / "BENCH_campaign.json").read_bytes() == \
        (tmp_path / "a" / "BENCH_campaign.json").read_bytes()
    for line in journal.read_text().splitlines():
        json.loads(line)


@pytest.mark.parametrize("damage", [
    b'{"event": "done", "sl\n',          # unparseable, but not the tail
    b'{"event": "done"}\n',               # a record without a slug
    b'[1, 2]\n',                          # JSON, not a record
])
def test_corrupt_journal_line_is_a_config_error(tmp_path, damage):
    space = tiny_space()
    with ParamSweeper.create(tmp_path / "c", space) as sw:
        first, second = sw.pending()[:2]
        sw.claim(first)
    journal = tmp_path / "c" / "journal.jsonl"
    with open(journal, "ab") as fh:
        fh.write(damage)
        fh.write(json.dumps({"slug": second.slug, "event": "claim"}).encode()
                 + b"\n")
    with pytest.raises(ConfigError, match=r"journal\.jsonl line 2 "):
        ParamSweeper.open_dir(tmp_path / "c")


# ----------------------------------------------------------------------
# engine: the acceptance properties
# ----------------------------------------------------------------------

def bench_bytes(engine):
    return render_bench_json("campaign", engine.aggregate())


def test_killed_sweep_resumes_without_redoing_work(tmp_path):
    space = tiny_space()
    # reference: uninterrupted sweep
    with ParamSweeper.create(tmp_path / "a", space) as sw:
        ref = Engine(sw, workers=1)
        assert ref.run().complete
        ref_bytes = bench_bytes(ref)

    # interrupted: stop after 3 combos, then resume from a fresh
    # sweeper (models a killed process restarting)
    with ParamSweeper.create(tmp_path / "b", space) as sw:
        Engine(sw, workers=1).run(max_combos=3)
        done_first = set(sw.done)
        assert len(done_first) == 3
    with ParamSweeper.open_dir(tmp_path / "b") as sw2:
        # completed combos are not pending again
        assert done_first == set(sw2.done)
        assert not done_first & {c.slug for c in sw2.pending()}
        eng = Engine(sw2, workers=1)
        assert eng.run().complete
        # result files for the first batch were written exactly once
        assert bench_bytes(eng) == ref_bytes


def test_engine_pool_matches_inline(tmp_path):
    space = tiny_space()
    with ParamSweeper.create(tmp_path / "a", space) as sw:
        inline = Engine(sw, workers=1)
        inline.run()
        inline_bytes = bench_bytes(inline)
    with ParamSweeper.create(tmp_path / "b", space) as sw:
        pooled = Engine(sw, workers=2)
        pooled.run()
        assert bench_bytes(pooled) == inline_bytes


def test_worker_exception_bounded_retry_and_quarantine(tmp_path):
    space = ParamSpace(
        {"app": ["jacobi", "boom"], "seed": [0]}, TINY, name="poison")
    with ParamSweeper.create(tmp_path / "c", space, max_tries=2) as sw:
        eng = Engine(sw, workers=1)
        stats = eng.run()
        assert stats.complete          # the sweep did not wedge
        assert stats.done == 1 and stats.skipped == 1
        (slug, tries, error), = sw.quarantined()
        assert "boom" in slug and tries == 2 and "ConfigError" in error
        # quarantine is visible in the reports
        assert "quarantined" in render_status(sw)
        agg = eng.aggregate()
        assert agg["skipped"] == [slug]
        assert "1 quarantined" in render_summary(agg)


def test_engine_writes_bench_file(tmp_path):
    space = ParamSpace({"app": ["jacobi"]}, TINY, name="one")
    with ParamSweeper.create(tmp_path / "c", space) as sw:
        eng = Engine(sw, workers=1)
        eng.run()
        eng.aggregate(write_to=tmp_path)
    payload = json.loads((tmp_path / "BENCH_campaign.json").read_text())
    assert payload["name"] == "campaign"
    assert payload["data"]["campaign"] == "one"
    assert payload["data"]["n_done"] == 1


# ----------------------------------------------------------------------
# aggregation determinism
# ----------------------------------------------------------------------

def test_aggregate_is_order_independent():
    rows = [
        {"slug": f"app=jacobi,seed={s}",
         "params": {"app": "jacobi", "n_nodes": 2, "seed": s},
         "metrics": {"wall_time": 0.1 * (s + 1), "n_redistributions": s,
                     "n_drops": 0}}
        for s in range(4)
    ]
    fwd = aggregate_results("x", rows, skipped=["b", "a"])
    rev = aggregate_results("x", list(reversed(rows)), skipped=["a", "b"])
    assert fwd == rev
    assert fwd["skipped"] == ["a", "b"]
    g, = fwd["groups"]
    assert g["count"] == 4
    assert g["mean_wall_time"] == pytest.approx(0.25)


# ----------------------------------------------------------------------
# fuzzer
# ----------------------------------------------------------------------

def test_splitmix64_is_stable_and_uniformish():
    rng = SplitMix64(42, 0)
    draws = [rng.randint(0, 9) for _ in range(200)]
    assert set(draws) == set(range(10))
    # same seed parts -> same stream; different parts -> different
    assert [SplitMix64(42, 0).next_u64() for _ in range(4)] == \
        [SplitMix64(42, 0).next_u64() for _ in range(4)]
    assert SplitMix64(42, 0).next_u64() != SplitMix64(42, 1).next_u64()


def test_splitmix64_draws_the_shared_finalizer():
    """The fuzzer's scalar generator is ``mix64`` of its pre-increment
    state: one SplitMix64 finalizer, kept in scalar form for the fuzzer
    so its draws never depend on numpy."""
    rng = SplitMix64(2024, 3)
    states, draws = [], []
    for _ in range(300):
        states.append(rng._state)
        draws.append(rng.next_u64())
    assert mix64(np.array(states, dtype=np.uint64)).tolist() == draws


def test_fuzz_params_deterministic_and_valid():
    seen = set()
    for i in range(30):
        params = fuzz_params(9, i)
        assert params == fuzz_params(9, i)
        resolve_params(params)               # must always validate
        combo_slug(params)                   # and be slug-safe
        seen.add(params["app"])
    assert len(seen) > 1                     # the space is actually swept


def test_fuzz_one_runs_all_invariants_clean():
    row = fuzz_one((1, 0))
    assert set(row["invariants"]) == {"oracle", "sanitize", "perturb"}
    assert row["ok"], row
    assert "repro" not in row


def test_fuzz_failure_persisted_with_repro_line(tmp_path, monkeypatch):
    # force the oracle checker to fail so persistence is exercised
    from repro.campaign import fuzz as fuzz_mod
    broken = (("oracle", lambda params: "forced violation"),) + \
        tuple(x for x in fuzz_mod._INVARIANTS if x[0] != "oracle")
    monkeypatch.setattr(fuzz_mod, "_INVARIANTS", broken[:1])
    report = run_fuzz(7, 2, out_dir=tmp_path)
    assert not report.clean and len(report.failures) == 2
    lines = (tmp_path / "failures.jsonl").read_text().splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert rec["repro"] == "python -m repro.campaign fuzz --seed 7 --index 0"
    assert "FAIL" in report.render()


def test_replay_checked_in_corpus_is_clean():
    # the pinned regression corpus: scenarios that once failed an
    # invariant must stay fixed forever
    corpus = pathlib.Path(__file__).parent / "fixtures" / "fuzz" / \
        "failures.jsonl"
    report = run_replay(corpus)
    assert report.clean, report.render()
    row, = report.rows
    assert set(row["invariants"]) == {"oracle", "sanitize", "perturb"}
    assert "drifted" not in row          # generator still derives the slug


def test_replay_falls_back_on_generator_drift():
    row = fuzz_one((0, 24))
    stale = dict(row)
    stale["slug"] = "app=ghost,long=gone"  # as if the generator moved on
    out = replay_one(stale)
    assert out["drifted"] is True
    assert out["params"] == row["params"]  # recorded params used verbatim
    assert out["ok"]


def test_replay_corpus_validation(tmp_path):
    bad = tmp_path / "failures.jsonl"
    bad.write_text(json.dumps({"seed": 1}) + "\n")
    with pytest.raises(ConfigError, match="missing"):
        load_corpus(bad)
    bad.write_text("")
    with pytest.raises(ConfigError, match="empty"):
        load_corpus(bad)
    bad.write_text("{not json\n")
    with pytest.raises(ConfigError, match="failures.jsonl:1"):
        load_corpus(bad)


def test_replay_cli_exit_codes(tmp_path):
    corpus = pathlib.Path(__file__).parent / "fixtures" / "fuzz" / \
        "failures.jsonl"
    root = pathlib.Path(__file__).parent.parent
    env = {"PYTHONPATH": str(root / "src")}
    r = subprocess.run(
        [sys.executable, "-m", "repro.campaign", "fuzz",
         "--replay", str(corpus), "--workers", "1"],
        capture_output=True, text=True, env=env, cwd=root,
    )
    assert r.returncode == 0, r.stdout + r.stderr
    assert "all invariants clean" in r.stdout
    r = subprocess.run(
        [sys.executable, "-m", "repro.campaign", "fuzz",
         "--replay", str(tmp_path / "nope.jsonl")],
        capture_output=True, text=True, env=env, cwd=root,
    )
    assert r.returncode == 2


def test_combo_identity_helpers():
    combo = Combo.from_dict({"b": 2, "a": 1})
    assert combo.slug == "a=1,b=2"
    assert combo.as_dict() == {"a": 1, "b": 2}
