"""Tests for the round-robin CPU scheduler — the core of the non
dedicated node model."""

import math

import pytest

from repro.config import NodeSpec
from repro.errors import SimulationError
from repro.simcluster import Compute, ProcState, Simulator, Sleep
from repro.simcluster.node import Node


def make_node(sim, speed=100.0, quantum=0.010, node_id=0):
    return Node(sim, node_id, NodeSpec(speed=speed, quantum=quantum))


def compute_prog(work):
    yield Compute(work)


def run_compute(work, speed=100.0, n_competing=0, quantum=0.010):
    sim = Simulator()
    node = make_node(sim, speed=speed, quantum=quantum)
    for _ in range(n_competing):
        node.start_competing()
    p = sim.spawn(compute_prog(work), name="w", node=node)
    sim.run_all([p])
    return sim.now, p


def test_dedicated_compute_takes_work_over_speed():
    t, p = run_compute(work=250.0, speed=100.0)
    assert t == pytest.approx(2.5, rel=1e-9)
    assert p.cpu_time == pytest.approx(2.5, rel=1e-9)


def test_one_competitor_doubles_wallclock():
    # Work that is an exact multiple of the quantum so RR has no
    # final-partial-slice skew.
    t, p = run_compute(work=100.0, speed=100.0, n_competing=1)
    assert t == pytest.approx(2.0, rel=1e-2)
    # CPU time actually consumed by the app is unchanged.
    assert p.cpu_time == pytest.approx(1.0, rel=1e-9)


def test_three_competitors_quadruple_wallclock():
    t, p = run_compute(work=100.0, speed=100.0, n_competing=3)
    assert t == pytest.approx(4.0, rel=1e-2)
    assert p.cpu_time == pytest.approx(1.0, rel=1e-9)


def test_rr_two_equal_jobs_finish_together_roughly():
    sim = Simulator()
    node = make_node(sim, speed=100.0)
    p1 = sim.spawn(compute_prog(100.0), name="a", node=node)
    p2 = sim.spawn(compute_prog(100.0), name="b", node=node)
    sim.run()
    assert sim.now == pytest.approx(2.0, rel=1e-2)
    assert p1.cpu_time == pytest.approx(1.0, rel=1e-9)
    assert p2.cpu_time == pytest.approx(1.0, rel=1e-9)


def test_rr_fast_path_single_event_for_dedicated_job():
    sim = Simulator()
    node = make_node(sim, speed=100.0, quantum=0.010)
    sim.spawn(compute_prog(1000.0), name="w", node=node)
    sim.run()
    # 10 s of compute at 10 ms quantum would be ~1000 slice events if the
    # fast path were missing.
    assert sim.n_events < 20


def test_rr_fast_path_preempted_by_arrival():
    sim = Simulator()
    node = make_node(sim, speed=100.0)

    def late_arrival():
        yield Sleep(0.5)
        yield Compute(50.0)

    p1 = sim.spawn(compute_prog(100.0), name="long", node=node)
    p2 = sim.spawn(late_arrival(), name="late", node=node)
    sim.run()
    # long: 0.5 s alone + shares [0.5..1.5]; late needs 0.5 CPU inside the
    # shared interval.  long finishes at 1.5, late at ~1.5.
    assert sim.now == pytest.approx(1.5, rel=1e-2)
    assert p1.cpu_time == pytest.approx(1.0, rel=1e-9)
    assert p2.cpu_time == pytest.approx(0.5, rel=1e-9)


def test_competing_process_accumulates_cpu_time():
    sim = Simulator()
    node = make_node(sim, speed=100.0)
    name = node.start_competing()
    p = sim.spawn(compute_prog(100.0), name="w", node=node)
    sim.run_all([p])
    bg = node.background[name]
    # Total CPU delivered over ~2 s is split evenly.
    assert bg.cpu_time == pytest.approx(1.0, rel=5e-2)


def test_stop_competing_restores_full_speed():
    sim = Simulator()
    node = make_node(sim, speed=100.0)
    node.start_competing("cp")
    sim.schedule(1.0, lambda: node.stop_competing("cp"))
    p = sim.spawn(compute_prog(100.0), name="w", node=node)
    sim.run_all([p])
    # 1 s at half speed (50 work) + 0.5 s at full speed (50 work).
    assert sim.now == pytest.approx(1.5, rel=1e-2)
    assert p.cpu_time == pytest.approx(1.0, rel=1e-9)


def test_stop_unknown_competing_raises():
    sim = Simulator()
    node = make_node(sim)
    with pytest.raises(SimulationError):
        node.stop_competing("ghost")


def test_duplicate_competing_name_raises():
    sim = Simulator()
    node = make_node(sim)
    node.start_competing("cp")
    with pytest.raises(SimulationError):
        node.start_competing("cp")


def test_runnable_count_includes_app_and_competitors():
    sim = Simulator()
    node = make_node(sim, speed=100.0)
    node.start_competing()
    node.start_competing()

    observed = []

    def prog():
        yield Compute(10.0)

    def sampler():
        yield Sleep(0.05)
        observed.append(node.runnable_count())

    app = sim.spawn(prog(), name="app", node=node)
    sim.spawn(sampler(), name="s", daemon=True)
    sim.run_all([app])
    assert observed == [3]


def test_blocked_process_not_runnable():
    sim = Simulator()
    node = make_node(sim)

    observed = []

    def prog():
        yield Sleep(1.0)  # blocked, off the run queue

    def sampler():
        yield Sleep(0.5)
        observed.append(node.runnable_count())

    sim.spawn(prog(), name="app", node=node)
    sim.spawn(sampler(), name="s", daemon=True)
    sim.run()
    assert observed == [0]


def test_rr_context_switch_counter_increases_under_load():
    sim = Simulator()
    node = make_node(sim, speed=100.0, quantum=0.010)
    node.start_competing()
    p = sim.spawn(compute_prog(50.0), name="w", node=node)
    sim.run_all([p])
    assert node.cpu.n_context_switches > 10


def test_zero_work_completes_immediately():
    t, p = run_compute(work=0.0)
    assert t == pytest.approx(0.0)
    assert p.state == ProcState.DONE


def test_node_attach_twice_rejected():
    sim = Simulator()
    n1 = make_node(sim, node_id=0)
    n2 = make_node(sim, node_id=1)

    def prog():
        yield Sleep(0.1)

    p = sim.spawn(prog(), name="p", node=n1)
    with pytest.raises(SimulationError):
        n2.attach(p)
    sim.run()


def test_sequential_computes_accumulate():
    sim = Simulator()
    node = make_node(sim, speed=100.0)

    def prog():
        yield Compute(50.0)
        yield Compute(50.0)
        yield Compute(100.0)

    p = sim.spawn(prog(), name="w", node=node)
    sim.run()
    assert sim.now == pytest.approx(2.0, rel=1e-9)
    assert p.cpu_time == pytest.approx(2.0, rel=1e-9)
