"""The grace period's per-row timing as one CPU job (``ComputeRows``).

Equivalence: the row chain must be indistinguishable from the loop of
one-row ``Compute`` requests it replaced (kept verbatim in
``tests/oracles/grace_rows.py``) in everything but event count — every
hr and /PROC sample, CPU time, busy time, fair-share EMA, context
switches, wake boosts, every dynscope CPU slice, and what the process
does after the rows — on an idle CPU, a contended one, with competitors
and wakeups coming and going mid-chain, and when the process is killed
or interrupted mid-chain.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.config import ClusterSpec, NetworkSpec, NodeSpec, RuntimeSpec
from repro.core import DynMPIJob
from repro.core.timing import GraceSamples, timed_rows
from repro.errors import SimulationError
from repro.simcluster import (Cluster, Compute, ComputeRows, CycleTrigger,
                              LoadScript, Sleep, TimeTrigger, to_ns)
from repro.sysmon import HrTimer, ProcClock

from tests.oracles.grace_rows import per_row_grace, row_loop
from tests.test_runtime import synthetic_program

QUANTUM = 0.010
SPEED = 1e8


class Interrupt(Exception):
    pass


def run_case(form, seed, works, n_cp, warm, churn, fate):
    """One process on a one-node cluster times ``works`` through
    ``form`` ("loop" or "chain"), then computes a follow-up; ``churn``
    is ``(time, action)`` with action "start"/"stop" (a competitor) or
    "wake" (a short process that wakes up on the node); ``fate`` is
    None or ``(action, time)`` with action "kill"/"inject".  Returns
    everything an observer of the node could measure, and when the
    process's CPU requests completed."""
    cluster = Cluster(ClusterSpec(n_nodes=1, seed=seed, observe=True,
                                  node=NodeSpec(speed=SPEED, quantum=QUANTUM)))
    sim, node = cluster.sim, cluster.nodes[0]
    cpu = node.cpu
    # process -> name, for reading every fair-share record at the end
    names = {}
    out, completed = {}, []
    complete = cpu._complete

    def spy_complete(job):
        if job.proc is app_proc:
            completed.append(sim.now)
        complete(job)

    cpu._complete = spy_complete

    started = itertools.count()

    def start():
        name = node.start_competing(f"cp{next(started)}")
        names[node.background[name]] = name

    for _ in range(n_cp):
        start()

    def app():
        if warm in ("compute", "compute+sleep"):
            yield Compute(0.03 * SPEED)   # well above any fair share
        if warm in ("sleep", "compute+sleep"):
            yield Sleep(0.0007)           # the rows start as a wakeup
        measure = row_loop if form == "loop" else timed_rows
        try:
            out["samples"] = yield from measure(HrTimer(sim), ProcClock(app_proc), works)
        except Interrupt:
            out["interrupted"] = sim.now
        yield Compute(0.004 * SPEED)      # runs on what credit the rows left
        out["done"] = sim.now

    app_proc = sim.spawn(app(), name="app", node=node)
    names[app_proc] = "app"
    wakers = []

    def wake(i):
        def waker():
            yield Compute(0.0015 * SPEED)
        wakers.append(sim.spawn(waker(), name=f"w{i}", node=node))
        names[wakers[-1]] = f"w{i}"

    for i, (t, action) in enumerate(churn):
        t = to_ns(t)
        if action == "start":
            sim.schedule(t, start)
        elif action == "stop":
            sim.schedule(t, lambda: node.background and node.stop_competing(
                next(iter(node.background))))
        else:
            sim.schedule(t, wake, i)
    if fate is not None:
        action, t = fate[0], to_ns(fate[1])
        if action == "kill":
            sim.schedule(t, sim.kill, app_proc)
        else:
            sim.schedule(t, sim.inject, app_proc, Interrupt())
    # the wakers spawn inside events: run until the app is done, then
    # until every waker is
    sim.run_all([app_proc], tolerate=lambda p: fate is not None)
    sim.run_all(wakers)
    samples = out.pop("samples", None)
    return {
        **out,
        "samples": None if samples is None else [a.tobytes() for a in samples],
        "state": app_proc.state,
        "cpu_time": app_proc.cpu_time,
        "busy_time": cpu.busy_time,
        "ema": {name: tuple(p.fair_share) for p, name in names.items()
                if p.fair_share is not None},
        "switches": cpu.n_context_switches,
        "boosts": cpu.n_wake_boosts,
        "slices": list(cluster.obs.slices),
        "now": sim.now,
    }, completed, sim.n_events


_WORK = st.one_of(st.just(0.0), st.floats(1e-6, 0.003), st.floats(0.003, 0.015))
_TIME = st.floats(0.0, 0.15)


@given(
    seed=st.integers(0, 20),
    works=st.lists(_WORK, min_size=1, max_size=40),
    n_cp=st.integers(0, 2),
    warm=st.sampled_from(["none", "compute", "sleep", "compute+sleep"]),
    churn=st.lists(st.tuples(_TIME, st.sampled_from(["start", "stop", "wake"])),
                   max_size=4),
    fate=st.none() | st.tuples(st.sampled_from(["kill", "inject"]), _TIME),
)
@settings(max_examples=200, deadline=None)
def test_row_chain_matches_row_loop(seed, works, n_cp, warm, churn, fate):
    works = np.array(works) * SPEED
    case = (seed, works, n_cp, warm, churn, fate)
    loop, row_ends, loop_events = run_case("loop", *case)
    # off-boundary only: something landing exactly on the end of one of
    # the loop's requests was ordered by event sequence numbers there.
    # The instant the rows start is no tie: whatever comes after the
    # first submit sees a row in flight in both forms
    ties = [to_ns(t) for t, _ in churn] + ([] if fate is None else [to_ns(fate[1])])
    assume(all(b != t for b in row_ends for t in ties))
    chain, _, chain_events = run_case("chain", *case)
    assert chain == loop
    assert chain_events <= loop_events


def test_a_peer_woken_with_the_rows_waits_for_the_first_row_only():
    """A process woken at the instant the rows start queues behind
    their first row without preempting it (same-instant wakeups are
    FIFO); the loop's second row then found it queued and took turns,
    so the chain must not run its rows untimed past the first."""
    works = np.array([0.001, 0.004, 0.004, 0.004, 0.003]) * SPEED
    case = (0, works, 0, "sleep", [(0.0007, "wake")], None)
    loop, chain = run_case("loop", *case), run_case("chain", *case)
    assert chain[0] == loop[0]
    assert loop[0]["slices"][4][1] == "w0"  # a turn between the rows


def test_idle_chain_costs_constant_events_and_loaded_one_per_row():
    """Alone on its CPU a chain is one untimed slice whatever its row
    count (the loop paid two events per row); with a competitor it
    pays at most one event per row plus the competitor's turns (the
    loop paid three)."""
    events = {}
    for n_cp in (0, 1):
        for n_rows in (50, 200):
            works = np.full(n_rows, 0.0003 * SPEED)
            for form in ("loop", "chain"):
                events[n_cp, n_rows, form] = run_case(
                    form, 0, works, n_cp, "none", [], None)[2]
    assert events[0, 200, "chain"] == events[0, 50, "chain"]
    assert events[0, 200, "loop"] - events[0, 50, "loop"] == 2 * 150
    extra = events[1, 200, "chain"] - events[1, 50, "chain"]
    assert extra < 1.1 * 150 < events[1, 200, "loop"] - events[1, 50, "loop"] < 3.1 * 150


#: competitors coming and going mid-chain in the run below, whose grace
#: cycles compute over 0.0246-0.0266, 0.0273-0.0293 and 0.0301-0.0321 s
_CHURN = {
    "none": [],
    "loaded-node-freed": [TimeTrigger(time=0.0255, node=0, action="stop")],
    "idle-node-loaded": [TimeTrigger(time=0.0280, node=2, action="start"),
                         TimeTrigger(time=0.0310, node=2, action="stop")],
}


@pytest.mark.parametrize("split", [False, True], ids=["whole", "sub-ranges"])
@pytest.mark.parametrize("churn", sorted(_CHURN))
def test_runtime_grace_matches_row_loop(split, churn, monkeypatch):
    """Whole stack: a DynMPI job with ``rows=`` sub-range computes, a
    competitor that arrives at cycle 5 and the ``churn`` above sees the
    same grace samples, adaptations, CPU accounting and dynscope slices
    through the chain as through the loop."""
    samples = []
    add_cycle = GraceSamples.add_cycle

    def recording_add_cycle(self, hr, proc):
        samples.append(np.concatenate([hr, proc]).tobytes())
        add_cycle(self, hr, proc)

    monkeypatch.setattr(GraceSamples, "add_cycle", recording_add_cycle)

    def compute(ctx, work_of):
        s, e = ctx.my_bounds()
        ranges = ([(s + 1, e - 1), (s, s), (e, e)] if split and e - s + 1 > 2
                  else [None])
        for rows in ranges:
            yield from ctx.compute(1, work_of, rows=rows)

    def run():
        samples.clear()
        cluster = Cluster(ClusterSpec(
            n_nodes=4, observe=True, node=NodeSpec(speed=SPEED, quantum=QUANTUM),
            network=NetworkSpec(latency=75e-6, bandwidth=12.5e6,
                                cpu_per_byte=0.4, cpu_per_msg=3000.0)))
        cluster.install_script(LoadScript(
            time_triggers=_CHURN[churn],
            cycle_triggers=[CycleTrigger(cycle=5, node=0, action="start")]))
        job = DynMPIJob(cluster, RuntimeSpec(grace_period=3, post_redist_period=5,
                                             allow_removal=False,
                                             daemon_interval=0.05))
        bounds = job.launch(synthetic_program, args=(40, None, False, compute))
        cpus = [n.cpu for n in cluster.nodes]
        return {
            "samples": list(samples),
            "bounds": bounds,
            "events": [(e.kind, e.cycle, e.time) for e in job.events],
            "now": cluster.sim.now,
            "cpu_time": sorted((p.name, p.cpu_time) for p in cluster.sim.processes),
            "busy": [c.busy_time for c in cpus],
            "switches": [c.n_context_switches for c in cpus],
            "boosts": [c.n_wake_boosts for c in cpus],
            # per node: a chain files the slices of an idle stretch when
            # the stretch ends, so nodes interleave differently in the
            # recorder's list (the export orders them by time)
            "slices": [[s for s in cluster.obs.slices if s[0] == n.node_id]
                       for n in cluster.nodes],
        }, cluster.sim.n_events

    chain, chain_events = run()
    with per_row_grace():
        loop, loop_events = run()
    assert chain["samples"] and any(k == "redistribute" for k, _, _ in chain["events"])
    assert chain == loop
    assert chain_events < loop_events


def test_compute_rows_rejects_bad_rows_and_detached_process():
    for bad in ([], [1.0, -1.0], [[1.0]]):
        with pytest.raises(ValueError):
            ComputeRows(bad)
    cluster = Cluster(ClusterSpec(n_nodes=1))

    def detached():
        yield ComputeRows([1.0])

    cluster.sim.spawn(detached(), name="d")
    with pytest.raises(SimulationError, match="not attached"):
        cluster.sim.run()


def test_compute_rows_resumes_with_every_boundary():
    cluster = Cluster(ClusterSpec(n_nodes=1, node=NodeSpec(speed=SPEED, quantum=QUANTUM)))
    sim = cluster.sim
    seen = {}

    def prog():
        yield Sleep(0.5)
        seen["rows"] = yield ComputeRows([0.001 * SPEED, 0.0, 0.002 * SPEED])

    proc = sim.spawn(prog(), name="p", node=cluster.nodes[0])
    sim.run()
    stamps, clocks = seen["rows"]
    assert stamps.tolist() == [to_ns(t) for t in (0.5, 0.501, 0.501, 0.503)]
    assert clocks.tolist() == [to_ns(t) for t in (0.0, 0.001, 0.001, 0.003)]
    assert proc.cpu_time == clocks[-1]
