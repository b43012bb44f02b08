"""dynflow tests: CFG construction on tricky shapes, call-graph
resolution and rooting, the taint/trace domain, every DYN5xx code on
the seeded-bad fixtures, the acceptance check that the real tree is
clean, suppression, the ``check`` CLI's exit-code/JSON contract, and
the CG removal regression the analyzer originally caught."""

import ast
import json
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.__main__ import analyze, main
from repro.analysis.flow.callgraph import load_registry
from repro.analysis.flow.cfg import build_cfg
from repro.analysis.flow.domain import TaintEnv, classify_call

ROOT = pathlib.Path(__file__).parent.parent
SRC = ROOT / "src"
FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "flow"
ENV = {"PYTHONPATH": str(SRC)}


def analyze_paths(paths):
    return analyze(paths)


def analyze_source(tmp_path, code, name="prog.py"):
    f = tmp_path / name
    f.write_text(textwrap.dedent(code))
    return analyze_paths([f])


def codes(findings):
    return sorted(f.code for f in findings)


def fn_of(code):
    return ast.parse(textwrap.dedent(code)).body[0]


# ----------------------------------------------------------------------
# CFG construction
# ----------------------------------------------------------------------

def test_cfg_if_else_join():
    cfg = build_cfg(fn_of("""
        def f(x):
            if x:
                a = 1
            else:
                a = 2
            return a
    """))
    kinds = {k for _, _, k in cfg.edges()}
    assert {"true", "false", "return"} <= kinds
    # both arms rejoin before the return
    labels = [b.label for b in cfg.blocks]
    assert "then" in labels and "else" in labels and "join" in labels


def test_cfg_while_else_break_bypasses_else():
    cfg = build_cfg(fn_of("""
        def f(xs):
            while xs:
                if stop():
                    break
                step()
            else:
                cleanup()
            return 1
    """))
    by_label = {b.label: b for b in cfg.blocks}
    after = by_label["while-after"]
    else_b = by_label["while-else"]
    # the break edge goes straight to after, skipping the else body
    break_dsts = [d for _, d, k in cfg.edges() if k == "break"]
    assert break_dsts == [after.idx]
    # the else body is entered from the loop head on normal exhaustion
    exit_dsts = [d for _, d, k in cfg.edges() if k == "exit"]
    assert else_b.idx in exit_dsts


def test_cfg_return_routes_through_finally():
    cfg = build_cfg(fn_of("""
        def f():
            try:
                return 1
            finally:
                release()
    """))
    by_label = {b.label: b for b in cfg.blocks}
    fin = by_label["finally"]
    # the try-body return enters the finally block, and the finally
    # block carries the deferred return edge to the function exit
    finally_dsts = [d for _, d, k in cfg.edges() if k == "finally"]
    assert fin.idx in finally_dsts
    assert (fin.idx, cfg.exit, "return") in cfg.edges()


def test_cfg_try_except_edges():
    cfg = build_cfg(fn_of("""
        def f():
            try:
                risky()
            except ValueError:
                fallback()
            return 1
    """))
    kinds = [k for _, _, k in cfg.edges()]
    assert "except" in kinds
    assert any(b.label.startswith("except-") for b in cfg.blocks)


def test_cfg_nested_comprehension_stays_in_one_block():
    cfg = build_cfg(fn_of("""
        def f(rows):
            flat = [x for row in rows for x in row if x]
            return flat
    """))
    # a comprehension is a value, not control flow: no branch blocks
    assert all(b.cond is None for b in cfg.blocks)
    stmts = [s for b in cfg.blocks for s in b.stmts]
    assert len(stmts) == 2  # the assign and the return


def test_cfg_unreachable_code_survives():
    cfg = build_cfg(fn_of("""
        def f():
            return 1
            dead()
    """))
    stmts = [s for b in cfg.blocks for s in b.stmts]
    assert len(stmts) == 2  # the dead call is kept in an orphan block
    assert any(b.label == "unreachable" for b in cfg.blocks)


# ----------------------------------------------------------------------
# call graph
# ----------------------------------------------------------------------

def _write(tmp_path, name, code):
    (tmp_path / name).write_text(textwrap.dedent(code))


def test_callgraph_roots_and_reachability(tmp_path):
    _write(tmp_path, "appmod.py", """
        def used_helper(ctx):
            yield from ctx.begin_cycle()
            yield from ctx.end_cycle()

        def foo_program(ctx, cfg):
            yield from used_helper(ctx)

        def lonely_helper(ctx):
            yield from ctx.begin_cycle()
            yield from ctx.end_cycle()
    """)
    _write(tmp_path, "driver.py", """
        from appmod import foo_program

        def main():
            run(foo_program)
    """)
    reg = load_registry([tmp_path])
    roots = {f.qualname for f in reg.roots()}
    # programs and mains root the analysis; the helper reached from
    # foo_program is not re-rooted, the unreached one is
    assert "foo_program" in roots
    assert "main" in roots
    assert "lonely_helper" in roots
    assert "used_helper" not in roots


def test_callgraph_resolves_from_imports(tmp_path):
    _write(tmp_path, "shared.py", """
        def reduce_all(ctx, x):
            out = yield from ctx.global_reduce(x)
            return out
    """)
    _write(tmp_path, "consumer.py", """
        from shared import reduce_all

        def sum_program(ctx, cfg):
            total = yield from reduce_all(ctx, 1.0)
            return total
    """)
    reg = load_registry([tmp_path])
    edges = reg.call_edges()
    assert ("consumer.sum_program", "shared.reduce_all") in edges


def test_callgraph_prefers_enclosing_scope(tmp_path):
    _write(tmp_path, "nest.py", """
        def outer_program(ctx, cfg):
            def step():
                return 1
            return step()

        def step():
            return 2
    """)
    reg = load_registry([tmp_path])
    mod = reg.modules["nest"]
    call = next(
        n for n in ast.walk(mod.functions["outer_program"].node)
        if isinstance(n, ast.Call)
    )
    resolved = reg.resolve_call(call, mod.functions["outer_program"])
    assert resolved is not None
    assert resolved.qualname == "outer_program.step"


# ----------------------------------------------------------------------
# abstract domain
# ----------------------------------------------------------------------

def _expr(src):
    return ast.parse(src, mode="eval").body


def test_classify_call_scopes():
    assert classify_call(_expr("ctx.global_reduce(x)")).scope == "world"
    assert classify_call(_expr("ctx.allgather_active(x)")).scope == "active"
    assert classify_call(_expr("ctx.ep.isend(w, t, p)")).kind == "send"
    # a .send on something that is not an endpoint is not traffic
    assert classify_call(_expr("queue.send(item)")) is None


def test_taint_sources_and_laundering():
    env = TaintEnv()
    assign = ast.parse("s, e = ctx.my_bounds()").body[0]
    env.assign(assign.targets, assign.value)
    assert {"s", "e"} <= env.tainted
    assert env.expr_tainted(_expr("e - s + 1"))
    # a collective result is rank-uniform: taint does not pass through
    assert not env.expr_tainted(_expr("ctx.allreduce_active(e - s)"))


def test_participation_info_forms():
    env = TaintEnv()
    assert env.participation_info(_expr("ctx.participating()")) == (
        "active", "removed"
    )
    assert env.participation_info(_expr("not ctx.participating()")) == (
        "removed", "active"
    )
    # participation as a conjunct: only the true edge is refined
    assert env.participation_info(
        _expr("cfg.collect and ctx.participating()")
    ) == ("active", None)
    assert env.participation_info(_expr("e >= s")) is None
    # a variable bound to participation carries the fact
    bind = ast.parse("alive = ctx.participating()").body[0]
    env.assign(bind.targets, bind.value)
    assert env.participation_info(_expr("alive")) == ("active", "removed")


# ----------------------------------------------------------------------
# the seeded-bad fixtures: every code fires, with the right shape
# ----------------------------------------------------------------------

def test_fixture_dyn501_branch_divergence():
    findings = analyze_paths([FIXTURES / "bad_dyn501_branch.py"])
    assert codes(findings) == ["DYN501"]
    f = findings[0]
    assert f.function == "skewed_reduce_program"
    assert f.side_by_side is not None
    assert any("allreduce_active" in s for s in f.side_by_side.left)
    assert f.side_by_side.right == ()  # the other arm is silent


def test_fixture_dyn502_rank_dependent_loop():
    findings = analyze_paths([FIXTURES / "bad_dyn502_loop.py"])
    assert codes(findings) == ["DYN502"]
    assert "range(s, e + 1)" in findings[0].message
    assert "global_reduce" in findings[0].message


def test_fixture_dyn503_removed_path_send_in():
    findings = analyze_paths([FIXTURES / "bad_dyn503_removed.py"])
    assert codes(findings) == ["DYN503", "DYN503"]
    messages = " ".join(f.message for f in findings)
    assert "send_rel" in messages
    assert "allreduce_active" in messages


def test_fixture_dyn504_ownership_violation():
    findings = analyze_paths([FIXTURES / "bad_dyn504_ownership.py"])
    assert codes(findings) == ["DYN504"]
    f = findings[0]
    assert f.detail["array"] == "grid"
    # the witness partition owns [407, 613] with a 1-row halo; a g-2
    # read reaches row 405, one past the declared region
    assert f.detail["accessed"] == [[405, 405]]


def test_fixture_dyn504_block_gather_violation():
    findings = analyze_paths([FIXTURES / "bad_dyn504_block.py"])
    assert codes(findings) == ["DYN504"]
    f = findings[0]
    assert f.detail["array"] == "grid"
    assert "grid.block(" in f.message
    # block(max(lo - 2, 0), min(hi + 1, n - 1)) is [405, 614] at the
    # witness: the clips are inactive, row 405 is outside the halo
    assert f.detail["accessed"] == [[405, 405]]


@pytest.mark.parametrize("access, accessed", [
    ("a.block(lo - 1, hi + 1)", None),
    ("a.block(max(lo - 1, 0), min(hi + 1, n - 1))", None),
    ("a.block(lo, hi + 3)", [[615, 616]]),
    ("a.set_block(lo, data)", None),
    ("a.set_block(lo - 2, data)", [[405, 405]]),
    ("a.hold(range(lo, hi + 1))", None),
    ("a.hold(range(lo - 1, hi + 2))", None),
    ("a.hold(range(lo - 3, hi + 1))", [[404, 405]]),
])
def test_dyn504_evaluates_the_slab_accessors(tmp_path, access, accessed):
    findings = analyze_source(tmp_path, f"""
        def slab_program(ctx, cfg):
            n = cfg.n
            a = ctx.register_dense("a", (n, n))
            ctx.add_array_access(1, "a", "rw", lo_off=-1, hi_off=1)
            ctx.commit()

            def exec_rows(lo, hi, data=None):
                {access}

            yield from ctx.begin_cycle()
            yield from ctx.compute(1, None, exec_rows)
            yield from ctx.end_cycle()
    """)
    assert [f.detail["accessed"] for f in findings] == (
        [accessed] if accessed else [])


@pytest.mark.parametrize("app, good, bad", [
    ("jacobi", "src.block(max(lo - 1, 0)", "src.block(max(lo - 2, 0)"),
    ("sor", "G.set_block(lo, ", "G.set_block(lo - 2, "),
])
def test_dyn504_looks_inside_the_real_exec_rows(tmp_path, app, good, bad):
    """"Clean" on the apps means evaluated and in bounds, not skipped:
    the same source with its slab access widened is reported (the
    callback reaches ``ctx.compute`` as ``exec_rows if cfg.materialized
    else None``)."""
    source = (SRC / "repro" / "apps" / f"{app}.py").read_text()
    assert good in source
    f = tmp_path / f"{app}.py"
    f.write_text(source)
    assert analyze_paths([f]) == []
    f.write_text(source.replace(good, bad))
    findings = analyze_paths([f])
    assert codes(findings) == ["DYN504"]
    assert findings[0].function == f"{app}_program.exec_rows"
    assert findings[0].detail["accessed"] == [[405, 405]]


def test_fixture_dyn505_signature_mismatch():
    findings = analyze_paths([FIXTURES / "bad_dyn505_signature.py"])
    assert codes(findings) == ["DYN505"]
    sbs = findings[0].side_by_side
    assert any("root=0" in s for s in sbs.left)
    assert any("root=1" in s for s in sbs.right)


# ----------------------------------------------------------------------
# acceptance: the real tree is clean, and the guards stay legal
# ----------------------------------------------------------------------

def test_real_tree_is_clean():
    findings = analyze_paths([SRC / "repro", ROOT / "examples"])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_participation_guard_is_legal(tmp_path):
    findings = analyze_source(tmp_path, """
        def guarded_program(ctx, cfg):
            yield from ctx.begin_cycle()
            if ctx.participating():
                acc = yield from ctx.allreduce_active(1.0)
            yield from ctx.end_cycle()
    """)
    assert findings == []


def test_compound_participation_guard_is_legal(tmp_path):
    # cfg.collect is rank-uniform: and-ing it with participation still
    # means the active collective is entered by active ranks only
    findings = analyze_source(tmp_path, """
        def collecting_program(ctx, cfg):
            if cfg.collect and ctx.participating():
                rows = yield from ctx.allgather_active([1])
    """)
    assert findings == []


def test_world_collective_under_guard_is_flagged(tmp_path):
    findings = analyze_source(tmp_path, """
        def broken_program(ctx, cfg):
            yield from ctx.begin_cycle()
            if ctx.participating():
                total = yield from ctx.global_reduce(1.0)
            yield from ctx.end_cycle()
    """)
    assert codes(findings) == ["DYN501"]
    assert "4.4" in findings[0].hint


def test_uniform_convergence_break_is_legal(tmp_path):
    # the classic pattern: loop until a *collective result* converges —
    # data-dependent, but identical on every rank
    findings = analyze_source(tmp_path, """
        def iterative_program(ctx, cfg):
            residual = 1.0
            for _ in range(cfg.iters):
                residual = yield from ctx.global_reduce(residual)
                if residual < cfg.tol:
                    break
    """)
    assert findings == []


def test_interprocedural_divergence_is_caught(tmp_path):
    # the collective hides inside a helper; the rank-dependent branch
    # is in the caller
    findings = analyze_source(tmp_path, """
        def reduce_step(ctx):
            out = yield from ctx.global_reduce(0.0)
            return out

        def split_program(ctx, cfg):
            s, e = ctx.my_bounds()
            if e - s > 3:
                val = yield from reduce_step(ctx)
    """)
    assert codes(findings) == ["DYN501"]


# ----------------------------------------------------------------------
# suppression
# ----------------------------------------------------------------------

def test_line_suppression_marker(tmp_path):
    findings = analyze_source(tmp_path, """
        def waived_program(ctx, cfg):
            s, e = ctx.my_bounds()
            if e - s > 10:  # dyn: ok(DYN501)
                acc = yield from ctx.allreduce_active(1.0)
    """)
    assert findings == []


def test_cli_missing_path_exits_two(tmp_path, capsys):
    missing = tmp_path / "nope.py"
    assert main(["check", str(missing)]) == 2
    assert capsys.readouterr().err == (
        f"check: cannot read {missing}: No such file or directory\n"
    )


# ----------------------------------------------------------------------
# CLI contract: exit codes and --json
# ----------------------------------------------------------------------

def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True, text=True, env=ENV, cwd=ROOT,
    )


def test_cli_flow_clean_exits_zero(tmp_path):
    clean = tmp_path / "fine.py"
    clean.write_text(textwrap.dedent("""
        def fine_program(ctx, cfg):
            yield from ctx.begin_cycle()
            yield from ctx.end_cycle()
    """))
    proc = _cli("check", str(clean))
    assert proc.returncode == 0
    assert "clean" in proc.stdout


def test_cli_flow_findings_exit_one_and_json():
    proc = _cli("check", "--json", str(FIXTURES / "bad_dyn503_removed.py"))
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert [f["code"] for f in payload["findings"]] == ["DYN503", "DYN503"]


def test_cli_flow_usage_error_exits_two():
    proc = _cli("check")  # missing paths
    assert proc.returncode == 2
    # the retired options are unknown arguments, not silently accepted
    for flag in ("--profile", "--baseline", "--write-baseline"):
        proc = _cli("check", flag, "x", "src")
        assert proc.returncode == 2
        assert f"unrecognized arguments: {flag}" in proc.stderr


@pytest.mark.parametrize("old", ["lint", "flow", "race", "perf"])
def test_cli_old_subcommands_are_gone(old):
    proc = _cli(old, "src")
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr


def test_cli_flow_budget_overrun_exits_two(tmp_path):
    clean = tmp_path / "fine.py"
    clean.write_text("def fine_program(ctx, cfg):\n    yield\n")
    proc = _cli("check", "--max-seconds", "0", str(clean))
    assert proc.returncode == 2
    assert "budget" in proc.stderr


def test_cli_lint_json():
    # seeded-bad for a library path, but out of every zone where it
    # sits: exit 0 with a JSON report
    args = ("check", "--json", "tests/fixtures/lint")
    proc = _cli(*args)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert set(payload) == {"tool", "count", "elapsed_seconds", "findings"}
    assert payload["count"] == 0 and payload["findings"] == []
    # byte determinism: a second run differs in the elapsed line only
    strip = lambda text: [ln for ln in text.splitlines() if "elapsed" not in ln]
    assert strip(proc.stdout) == strip(_cli(*args).stdout)


# ----------------------------------------------------------------------
# the regression dynflow originally caught: CG's global_reduce must be
# reachable by removed ranks (paper 4.4 send-out)
# ----------------------------------------------------------------------

def test_cg_global_reduce_reaches_removed_ranks():
    from repro.apps.base import run_program
    from repro.apps.cg import CGConfig, cg_program
    from repro.config import ClusterSpec, NetworkSpec, NodeSpec, RuntimeSpec
    from repro.simcluster import Cluster, CycleTrigger, LoadScript

    cluster = Cluster(ClusterSpec(
        n_nodes=4, sanitize=True, node=NodeSpec(speed=1e8),
        network=NetworkSpec(latency=75e-6, bandwidth=12.5e6,
                            cpu_per_byte=0.4, cpu_per_msg=3000.0),
    ))
    script = LoadScript(cycle_triggers=[
        CycleTrigger(cycle=3, node=1, action="start", count=8),
    ])
    # before the fix, every post-removal iteration left two unmatched
    # global_reduce send-outs per removed rank and the sanitizer threw
    res = run_program(
        cluster, cg_program, CGConfig(n=48, iters=25),
        spec=RuntimeSpec(grace_period=2, post_redist_period=3,
                         allow_removal=True, drop_margin=1e-9,
                         daemon_interval=0.002),
        adaptive=True, load_script=script,
    )
    assert res.n_redistributions >= 1
    assert res.per_rank[0]["residual"] == pytest.approx(0.0, abs=1e-6)
    # every rank — including the removed one — tracked the recurrence
    residuals = {r["residual"] for r in res.per_rank}
    assert len(residuals) == 1
