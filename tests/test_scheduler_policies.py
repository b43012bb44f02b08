"""Focused tests for the scheduler's policy layer: the fair-share EMA
governor, the interactive slice, and quantum continuation — the pieces
that make the non dedicated node model behave like a real OS (see the
scheduler row of DESIGN.md's substitution table)."""

import pathlib
import subprocess
import sys

import pytest

from repro.config import ClusterSpec, NodeSpec
from repro.simcluster import Cluster, Compute, Sleep
from repro.simcluster.cpu import RoundRobinCPU

SPEED = 1e8
QUANTUM = 0.010


def make_cluster():
    return Cluster(ClusterSpec(
        n_nodes=1, node=NodeSpec(speed=SPEED, quantum=QUANTUM)))


def run(prog_gen, n_competing=0, until=float("inf")):
    cluster = make_cluster()
    node = cluster.nodes[0]
    for _ in range(n_competing):
        node.start_competing()
    p = cluster.sim.spawn(prog_gen, name="app", node=node)
    cluster.sim.run_all([p], until=until)
    return cluster, p


def test_cpu_hungry_app_gets_fair_share():
    """An app alternating long computes with tiny blocks converges to
    ~1/(k+1) of the CPU: the governor denies its boosts."""
    work_per_burst = SPEED * QUANTUM * 2  # 20 ms CPU per burst

    def prog():
        for _ in range(40):
            yield Compute(work_per_burst)
            yield Sleep(1e-5)

    cluster, p = run(prog(), n_competing=1)
    total_cpu = 40 * QUANTUM * 2
    # wallclock ~= 2x its CPU need under 1 competing process
    assert cluster.sim.now == pytest.approx(2 * total_cpu, rel=0.15)


def test_mostly_blocked_app_keeps_its_boost():
    """An app that sleeps most of the time stays below fair share and
    its short bursts run promptly despite a competing process."""
    burst = SPEED * 0.0005  # 0.5 ms CPU

    def prog():
        for _ in range(40):
            yield Sleep(0.010)
            yield Compute(burst)

    cluster, p = run(prog(), n_competing=1)
    # ideal = 40 * (10 ms sleep + 0.5 ms burst); boosted bursts keep
    # the overhead small even with a CPU hog present
    ideal = 40 * 0.0105
    assert cluster.sim.now < ideal * 1.25


def test_interactive_slice_caps_boosted_compute():
    """A wakeup above fair share gets only a short head start: a long
    compute following a wake still pays the fair-share price."""
    def prog():
        # build a high EMA share first
        yield Compute(SPEED * 0.08)
        yield Sleep(1e-4)  # brief block, then a long compute
        yield Compute(SPEED * 0.05)

    cluster, p = run(prog(), n_competing=1)
    # the post-wake 50 ms compute must NOT have run at full speed:
    # total elapsed >> sum of CPU times
    assert cluster.sim.now > 0.13 * 1.6


def test_quantum_continuation_chains_same_instant_submissions():
    """Back-to-back computes from one process share a quantum instead
    of queueing behind the competitor each time."""
    rows = 20
    per_row = SPEED * 0.0002  # 0.2 ms each; 4 ms total, well within one quantum

    def prog():
        yield Sleep(0.001)
        for _ in range(rows):
            yield Compute(per_row)

    cluster, p = run(prog(), n_competing=1)
    # without continuation each row would wait ~a competing quantum:
    # >200 ms; with it the chain finishes within a few quanta
    assert cluster.sim.now < 0.05


def test_ema_share_decays_over_time():
    cluster = make_cluster()
    cpu = cluster.nodes[0].cpu
    assert isinstance(cpu, RoundRobinCPU)

    class P:  # stand-in schedulable
        name = "x"
        state = "ready"
        cpu_time = 0.0
        fair_share = None

    proc = P()
    cpu._ema_add(proc, 0.02)
    s0 = cpu._ema_share(proc)
    cluster.sim.now = 0.2  # let a long time pass
    s1 = cpu._ema_share(proc)
    assert s1 < s0 / 10


def test_below_fair_share_threshold():
    cluster = make_cluster()
    cpu = cluster.nodes[0].cpu

    class P:
        name = "y"
        state = "ready"
        cpu_time = 0.0
        fair_share = None

    proc = P()
    # untouched process: share 0 -> below fair
    assert cpu._below_fair_share(proc)
    cpu._ema_add(proc, cpu._EMA_TAU)  # share ~= 1.0
    assert not cpu._below_fair_share(proc)


def test_background_jobs_never_boosted():
    cluster = make_cluster()
    node = cluster.nodes[0]
    node.start_competing()
    boosts_before = node.cpu.n_wake_boosts
    node.start_competing()  # background submit, not a wakeup boost
    assert node.cpu.n_wake_boosts == boosts_before


_REMOVAL = """
from repro.obs.scenario import RemovalScenario, run_removal
result, _ = run_removal(RemovalScenario(n_nodes=4, n=64, iters=24,
                                        load_cycle=4, n_cp=2), observe=False)
print(repr([(e.kind, e.cycle, e.time, e.duration, e.detail)
            for e in result.events]))
print(repr([ctx.cycle_times for ctx in result.job.contexts]))
"""


def test_schedule_does_not_depend_on_object_addresses():
    """Fair-share records live on the processes, not under ``id()``:
    a removal run under CPython's plain ``malloc`` allocator (other
    addresses, other reuse) adapts at the same cycles and times as a
    default run, and every rank measures the same cycle times."""
    root = pathlib.Path(__file__).parent.parent
    outs = []
    for extra in ({}, {"PYTHONMALLOC": "malloc"}):
        proc = subprocess.run(
            [sys.executable, "-c", _REMOVAL], capture_output=True, text=True,
            env={"PYTHONPATH": str(root / "src"), **extra}, cwd=root,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert "'drop'" in outs[0]
    assert outs[0] == outs[1]
