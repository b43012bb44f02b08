"""AST lint tests: each DYN code, zone scoping (derived from the
path), the ``check`` CLI's exit-code/JSON contract, and the acceptance
check that the real tree is clean.  Suppression is covered once for
every code in ``tests/test_analysis_registry.py``."""

import json
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.__main__ import analyze, main
from repro.analysis.lint import lint_file, lint_source

ROOT = pathlib.Path(__file__).parent.parent
SRC_ROOT = ROOT / "src"

#: a path inside every library zone but the deterministic/row ones
LIB = "src/repro/apps/x.py"
#: a path inside the deterministic (and row-membership) zone
CORE = "src/repro/core/x.py"


def lint(code, *, zone=False):
    return lint_source(textwrap.dedent(code), CORE if zone else "x.py")


def codes(findings):
    return [f.code for f in findings]


# ----------------------------------------------------------------------
# DYN001 / DYN002: undriven generator endpoint calls
# ----------------------------------------------------------------------

def test_bare_endpoint_send_is_caught():
    findings = lint("""
        def program(ep):
            ep.send(1, tag=0, payload="lost")
            yield from ep.recv(1, tag=1)
    """)
    assert codes(findings) == ["DYN001"]
    assert "ep.send(...)" in findings[0].message
    assert "yield from" in findings[0].message


def test_bare_isend_and_halo_start_are_caught():
    # both pay the send's CPU inside the generator: a bare call charges
    # nothing and puts nothing on the wire
    findings = lint("""
        def program(ep, ctx, arr):
            ep.isend(1, tag=0, payload="lost")
            halo_start(ctx, arr, materialized=False)
            req = yield from ep.isend(1, tag=1, payload="sent")
            yield from req.wait()
    """)
    assert codes(findings) == ["DYN001", "DYN001"]
    assert "ep.isend(...)" in findings[0].message
    assert "halo_start(...)" in findings[1].message


def test_bare_collective_call_is_caught():
    findings = lint("""
        def program(ep):
            barrier(ep, group)
            yield from bcast(ep, group, None, root=0)
    """)
    assert codes(findings) == ["DYN001"]


def test_yield_instead_of_yield_from_is_caught():
    findings = lint("""
        def program(ep):
            data, _ = yield ep.recv(0, tag=1)
    """)
    assert codes(findings) == ["DYN002"]


def test_driven_calls_are_clean():
    findings = lint("""
        def program(ep):
            yield from ep.send(1, tag=0, payload="ok")
            data, _ = yield from ep.recv(1, tag=1)
            gen = ep.send(1, tag=2, payload="kept")  # assigned, not dropped
            yield from gen
    """)
    assert findings == []


def test_unrelated_methods_named_send_do_not_fire_on_yield():
    # ep.send(...) as a *driven* generator or non-endpooint contexts
    findings = lint("""
        def f(sock):
            return sock.sendall(b"x")
    """)
    assert findings == []


# ----------------------------------------------------------------------
# DYN101: nondeterminism in deterministic zones
# ----------------------------------------------------------------------

def test_wallclock_flagged_only_in_zone():
    code = """
        import time
        def stamp():
            return time.time()
    """
    assert codes(lint(code, zone=True)) == ["DYN101"]
    assert lint(code, zone=False) == []


def test_random_module_flagged_in_zone():
    findings = lint("""
        import random
        def pick(xs):
            return random.choice(xs)
    """, zone=True)
    assert codes(findings) == ["DYN101", "DYN101"]  # import + call


def test_from_random_import_tracked():
    findings = lint("""
        from random import choice
        def pick(xs):
            return choice(xs)
    """, zone=True)
    assert codes(findings) == ["DYN101", "DYN101"]


def test_numpy_global_random_flagged_alias_aware():
    findings = lint("""
        import numpy as np
        def noise(n):
            return np.random.rand(n)
    """, zone=True)
    assert codes(findings) == ["DYN101"]
    assert "numpy.random.rand" in findings[0].message


def test_seeded_generator_allowed_unseeded_flagged():
    ok = lint("""
        import numpy as np
        def rng():
            return np.random.default_rng(1234)
    """, zone=True)
    assert ok == []
    bad = lint("""
        import numpy as np
        def rng():
            return np.random.default_rng()
    """, zone=True)
    assert codes(bad) == ["DYN101"]


def test_zone_detected_from_path(tmp_path):
    zone_dir = tmp_path / "simcluster"
    zone_dir.mkdir()
    f = zone_dir / "mod.py"
    f.write_text("import time\nt = time.time()\n")
    assert codes(lint_file(f)) == ["DYN101"]
    outside = tmp_path / "mod.py"
    outside.write_text("import time\nt = time.time()\n")
    assert lint_file(outside) == []


# ----------------------------------------------------------------------
# DYN401: per-row set arithmetic on data-plane hot paths
# ----------------------------------------------------------------------

ROWY = """
    def owned(b):
        return set(range(b[0], b[1] + 1))

    def ghosts(lo, hi, held):
        return [g for g in range(lo, hi + 1) if g not in held]

    def stale(lo, hi, keep):
        return {g for g in range(lo, hi) if g in keep}
"""


def test_dyn401_flags_row_loops_in_zone():
    findings = lint_source(textwrap.dedent(ROWY), CORE)
    assert codes(findings) == ["DYN401", "DYN401", "DYN401"]
    assert "IntervalSet" in findings[0].message
    # outside core/resilience the same code is fine
    assert lint_source(textwrap.dedent(ROWY)) == []


def test_dyn401_allows_rank_space_and_unfiltered_loops():
    findings = lint_source(textwrap.dedent("""
        def alive(n, dead):
            return set(range(n)) - set(dead)       # rank space: 1-arg range

        def widths(lo, hi):
            return [g * 2 for g in range(lo, hi)]  # no membership filter

        def lazy(lo, hi, held):
            return (g for g in range(lo, hi) if g in held)  # genexp
    """), CORE)
    assert findings == []


def test_dyn401_suppressible():
    findings = lint_source(textwrap.dedent("""
        def owned(b):
            return set(range(b[0], b[1] + 1))  # dyn: ok(DYN401)
    """), CORE)
    assert findings == []


def test_dyn401_zone_and_reference_exemption(tmp_path):
    code = "def owned(b):\n    return set(range(b[0], b[1] + 1))\n"
    zone = tmp_path / "core"
    zone.mkdir()
    (zone / "mod.py").write_text(code)
    (zone / "reference.py").write_text(code)
    res = tmp_path / "resilience"
    res.mkdir()
    (res / "mod.py").write_text(code)
    outside = tmp_path / "oracles"
    outside.mkdir()
    (outside / "row_sets.py").write_text(code)
    assert codes(lint_file(zone / "mod.py")) == ["DYN401"]
    # no file is exempt by name: the set oracle left the zone instead
    assert codes(lint_file(zone / "reference.py")) == ["DYN401"]
    assert codes(lint_file(res / "mod.py")) == ["DYN401"]
    assert lint_file(outside / "row_sets.py") == []


# ----------------------------------------------------------------------
# DYN601: ad-hoc instrumentation in library code
# ----------------------------------------------------------------------

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "lint"


def test_dyn601_fixture_findings():
    src = (FIXTURES / "instrumented_module.py").read_text()
    findings = lint_source(src, "src/repro/apps/instrumented_module.py")
    assert codes(findings) == ["DYN601"] * 3
    messages = [f.message for f in findings]
    assert "print" in messages[0]
    assert "time.perf_counter" in messages[1]
    assert "time.time" in messages[2]          # via the from-import alias
    # the same file is clean outside the zone (that is why it may sit
    # under tests/ without tripping the CI lint gate)
    assert lint_source(src, "instrumented_module.py") == []


def test_dyn601_suppressible():
    findings = lint_source(textwrap.dedent("""
        import time
        t0 = time.monotonic()  # dyn: ok(DYN601)
        print("progress")  # dyn: ok(DYN601)
    """), LIB)
    assert findings == []


def test_dyn601_time_family_defers_to_dyn101_in_deterministic_zone():
    code = textwrap.dedent("""
        import time
        def stamp():
            return time.time()
    """)
    both = lint_source(code, CORE)
    assert codes(both) == ["DYN101"]  # no double report
    # print stays DYN601 even inside a deterministic zone
    noisy = lint_source("print('hi')\n", CORE)
    assert codes(noisy) == ["DYN601"]


def test_dyn601_sleep_and_fstrings_not_flagged():
    findings = lint_source(textwrap.dedent("""
        import time
        def pace():
            time.sleep(0.1)
            return f"n={1 + 1}"
    """), LIB)
    assert findings == []


def test_dyn601_zone_detected_from_path(tmp_path):
    code = "print('chatty library')\n"
    cases = {
        "repro/core/mod.py": True,
        "repro/apps/jacobi.py": True,
        "repro/obs/recorder.py": False,       # instrumentation home
        "repro/sysmon/timers.py": False,      # instrumentation home
        "repro/analysis/__main__.py": False,  # the check budget is wallclock
        "repro/obs/__main__.py": False,       # CLI entry point
        "repro/cli.py": False,                # the CLI contract
        "repro/experiments/report.py": False,  # report formatter
        "benchmarks/bench_fig4.py": False,    # not under repro
    }
    for rel, expect in cases.items():
        f = tmp_path / rel
        f.parent.mkdir(parents=True, exist_ok=True)
        f.write_text(code)
        found = codes(lint_file(f))
        assert found == (["DYN601"] if expect else []), rel


# ----------------------------------------------------------------------
# suppression + syntax errors
# ----------------------------------------------------------------------

def test_suppression_comment():
    findings = lint("""
        def program(ep):
            ep.send(1, tag=0, payload="x")  # dyn: ok(DYN001)
            yield from ep.recv(1, tag=1)
    """)
    assert findings == []


def test_syntax_error_reported_as_dyn000():
    findings = lint_source("def f(:\n", path="broken.py")
    assert codes(findings) == ["DYN000"]


# ----------------------------------------------------------------------
# the gates: the CI path set is clean; CLI exit codes and --json
# ----------------------------------------------------------------------

def test_src_tree_is_clean():
    findings = analyze([SRC_ROOT])
    assert findings == [], "\n".join(str(f) for f in findings)


def test_real_tree_is_clean():
    # the rest of the CI gate's path set — whole trees, seeded-bad
    # fixtures included: where they sit, they are outside every zone
    # their rule applies in
    findings = analyze([ROOT / d for d in ("examples", "benchmarks", "tests")])
    assert findings == [], "\n".join(str(f) for f in findings)


DIRTY = (
    "def program(ep):\n"
    "    ep.send(1, tag=0, payload='lost')\n"
    "    yield from ep.recv(1, tag=1)\n"
)


def test_cli_clean_and_dirty(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert main(["check", str(clean)]) == 0
    assert "check: clean" in capsys.readouterr().out

    dirty = tmp_path / "dirty.py"
    dirty.write_text(DIRTY)
    assert main(["check", str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "DYN001" in out and "dirty.py:2" in out


def test_cli_missing_path_exits_two(tmp_path, capsys):
    missing = tmp_path / "nope.py"
    assert main(["check", str(missing)]) == 2
    assert capsys.readouterr().err == (
        f"analysis: [Errno 2] No such file or directory: '{missing}'\n"
    )


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True, text=True, env={"PYTHONPATH": str(SRC_ROOT)},
        cwd=ROOT,
    )


def test_cli_clean_exits_zero(tmp_path):
    clean = tmp_path / "fine.py"
    clean.write_text("def fine_program(ctx, cfg):\n"
                     "    yield from ctx.begin_cycle()\n"
                     "    yield from ctx.end_cycle()\n")
    proc = _cli("check", str(clean))
    assert proc.returncode == 0
    assert "clean" in proc.stdout


def test_cli_findings_exit_one_and_json(tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(DIRTY)
    proc = _cli("check", "--json", str(dirty))
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["count"] == 1
    (finding,) = payload["findings"]
    assert set(finding) == {"code", "summary", "path", "line", "col",
                            "message"}
    assert (finding["code"], finding["line"]) == ("DYN001", 2)


def test_cli_usage_error_exits_two():
    proc = _cli("check")  # missing paths
    assert proc.returncode == 2
    # the retired options are unknown arguments, not silently accepted
    for flag in ("--profile", "--baseline", "--write-baseline", "--no-flow"):
        proc = _cli("check", flag, "x", "src")
        assert proc.returncode == 2
        assert f"unrecognized arguments: {flag}" in proc.stderr


@pytest.mark.parametrize("old", ["lint", "flow", "race", "perf"])
def test_cli_old_subcommands_are_gone(old):
    proc = _cli(old, "src")
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr


def test_cli_budget_overrun_exits_two(tmp_path):
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
# DYN801: process-level parallelism outside repro.campaign
# ----------------------------------------------------------------------

def test_dyn801_fixture_findings():
    src = (FIXTURES / "process_module.py").read_text()
    findings = lint_source(src, "src/repro/apps/process_module.py")
    assert codes(findings) == ["DYN801"] * 3
    assert "multiprocessing" in findings[0].message
    assert "concurrent.futures" in findings[1].message
    assert "subprocess" in findings[2].message
    # the aliased import on the suppressed line must not be reported,
    # and the whole file is clean outside the zone
    assert lint_source(src, "process_module.py") == []


def test_dyn801_zone_boundaries(tmp_path):
    code = "import multiprocessing\n"
    lib = tmp_path / "repro" / "runtime"
    lib.mkdir(parents=True)
    (lib / "mod.py").write_text(code)
    camp = tmp_path / "repro" / "campaign"
    camp.mkdir()
    (camp / "engine.py").write_text(code)
    outside = tmp_path / "tests"
    outside.mkdir()
    (outside / "mod.py").write_text(code)
    assert codes(lint_file(lib / "mod.py")) == ["DYN801"]
    assert lint_file(camp / "engine.py") == []       # the sanctioned home
    assert lint_file(outside / "mod.py") == []       # tests are free


# ----------------------------------------------------------------------
# DYN901: event-queue manipulation outside simcluster/kernel.py
# ----------------------------------------------------------------------

def test_dyn901_fixture_findings():
    src = (FIXTURES / "bad_dyn901_heapq.py").read_text()
    findings = lint_source(src, "src/repro/apps/bad_dyn901_heapq.py")
    assert codes(findings) == ["DYN901"] * 4
    assert "heapq" in findings[0].message
    assert "heapq" in findings[1].message
    assert "sim._heap" in findings[2].message
    assert "sim._heap" in findings[3].message
    # the suppressed alias import must not be reported, and the whole
    # file is clean outside the zone
    assert lint_source(src, "bad_dyn901_heapq.py") == []


def test_dyn901_zone_boundaries(tmp_path):
    code = "import heapq\n"
    lib = tmp_path / "repro" / "runtime"
    lib.mkdir(parents=True)
    (lib / "daemon.py").write_text(code)
    home = tmp_path / "repro" / "simcluster"
    home.mkdir()
    (home / "kernel.py").write_text(code)
    (home / "kernel_fast.py").write_text(code)
    (home / "network.py").write_text(code)
    oracles = tmp_path / "repro" / "tests" / "oracles"
    oracles.mkdir(parents=True)
    (oracles / "kernel_reference.py").write_text(code)
    (oracles / "poll_loop.py").write_text(code)
    outside = tmp_path / "tests"
    outside.mkdir()
    (outside / "test_kernel.py").write_text(code)
    assert codes(lint_file(lib / "daemon.py")) == ["DYN901"]
    assert lint_file(home / "kernel.py") == []            # the home
    # under simcluster/ only kernel.py itself is home ...
    assert codes(lint_file(home / "kernel_fast.py")) == ["DYN901"]
    assert codes(lint_file(home / "network.py")) == ["DYN901"]
    # ... and the reference loop's is tests/oracles, which matters in
    # a checkout whose own directory is called repro
    assert lint_file(oracles / "kernel_reference.py") == []
    assert codes(lint_file(oracles / "poll_loop.py")) == ["DYN901"]
    assert lint_file(outside / "test_kernel.py") == []    # tests are free


def test_dyn901_heap_attribute_is_caught():
    findings = lint_source(
        "def drain(sim):\n"
        "    while sim._heap:\n"
        "        sim._heap.pop()\n",
        LIB,
    )
    assert codes(findings) == ["DYN901"] * 2
    assert "schedule" in findings[0].message


# ----------------------------------------------------------------------
# DYN1101: farm-protocol access outside repro.farm / repro.mpi.rma
# ----------------------------------------------------------------------

def test_dyn1101_fixture_findings():
    src = (FIXTURES / "bad_dyn1101_farm.py").read_text()
    findings = lint_source(src, "src/repro/apps/bad_dyn1101_farm.py")
    assert codes(findings) == ["DYN1101"] * 3
    assert "211" in findings[0].message
    assert "213" in findings[1].message
    assert "Window" in findings[2].message
    # suppressed lines, out-of-band tags, and the whole file outside
    # the zone are all clean
    assert lint_source(src, "bad_dyn1101_farm.py") == []


def test_dyn1101_zone_boundaries(tmp_path):
    code = "def f(ep):\n    yield from ep.send(0, 212, None)\n"
    lib = tmp_path / "repro" / "apps"
    lib.mkdir(parents=True)
    (lib / "rogue.py").write_text(code)
    farm_home = tmp_path / "repro" / "farm"
    farm_home.mkdir()
    (farm_home / "runtime.py").write_text(code)
    rma_home = tmp_path / "repro" / "mpi"
    rma_home.mkdir()
    (rma_home / "rma.py").write_text(code)
    (rma_home / "comm.py").write_text(code)
    outside = tmp_path / "tests"
    outside.mkdir()
    (outside / "test_farm.py").write_text(code)
    assert codes(lint_file(lib / "rogue.py")) == ["DYN1101"]
    assert lint_file(farm_home / "runtime.py") == []   # the farm home
    assert lint_file(rma_home / "rma.py") == []        # the RMA home
    assert codes(lint_file(rma_home / "comm.py")) == ["DYN1101"]
    assert lint_file(outside / "test_farm.py") == []   # tests are free


def test_dyn1101_window_and_keyword_tags_caught():
    findings = lint_source(
        "def f(comm, ep):\n"
        "    w = Window(comm, 8)\n"
        "    yield from ep.recv(0, tag=215)\n",
        LIB,
    )
    assert codes(findings) == ["DYN1101"] * 2
    assert "Window" in findings[0].message
    assert "215" in findings[1].message
