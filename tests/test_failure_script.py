"""Unit tests for repro.resilience.failures: the FailureScript trigger
machinery (the failure-side mirror of LoadScript) and each fault kind's
effect on the cluster, independent of the Dyn-MPI runtime."""

import pytest

from repro.config import ClusterSpec, NodeSpec
from repro.errors import ConfigError, SimulationError
from repro.resilience import (
    CycleFault,
    FailureScript,
    InjectedFault,
    TimeFault,
    node_crash,
)
from repro.simcluster import Cluster, ProcState, Sleep, to_ns, to_s


def make_cluster(n=3, observe=None):
    return Cluster(ClusterSpec(n_nodes=n, node=NodeSpec(speed=1e8),
                               observe=observe))


def spin(duration=1000.0):
    yield Sleep(duration)


# ---------------------------------------------------------------------------
# trigger validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kw", [
    {"action": "explode"},
    {"action": "slowdown", "count": 0},
    {"action": "slowdown", "duration": -1.0},
    {"action": "partition", "peers": (-1,)},
    {"action": "partition", "peers": ("n2",)},
])
def test_bad_fault_parameters(kw):
    with pytest.raises(ConfigError):
        TimeFault(time=1.0, node=0, **kw)
    with pytest.raises(ConfigError):
        CycleFault(cycle=1, node=0, **kw)


def test_negative_trigger_points():
    with pytest.raises(ConfigError):
        TimeFault(time=-0.1, node=0, action="crash")
    with pytest.raises(ConfigError):
        CycleFault(cycle=-1, node=0, action="crash")


def test_node_crash_needs_exactly_one_trigger():
    with pytest.raises(ConfigError):
        node_crash(1)
    with pytest.raises(ConfigError):
        node_crash(1, at_cycle=5, at_time=1.0)
    assert node_crash(1, at_cycle=5).cycle_faults[0].cycle == 5
    assert node_crash(1, at_time=2.0).time_faults[0].time == 2.0


def test_uninstalled_script_cannot_fire():
    script = FailureScript(cycle_faults=[
        CycleFault(cycle=0, node=0, action="crash")])
    with pytest.raises(ConfigError):
        script.on_cycle(0)


def test_cycle_fault_fires_once():
    cluster = make_cluster()
    script = FailureScript(cycle_faults=[
        CycleFault(cycle=3, node=1, action="slowdown", count=2)])
    cluster.install_failure_script(script)
    cluster.notify_cycle(3)
    cluster.notify_cycle(3)  # duplicate notification must not re-fire
    assert len(cluster.nodes[1].background) == 2


# ---------------------------------------------------------------------------
# crash
# ---------------------------------------------------------------------------

def test_crash_marks_board_and_stops_competing():
    cluster = make_cluster(observe=True)
    cluster.nodes[2].start_competing()
    cluster.install_failure_script(node_crash(2, at_cycle=5))
    cluster.notify_cycle(5)
    board = cluster.failure_board
    assert board.crashed(2) and board.failed(2)
    assert not board.killed(2)
    assert board.failed_nodes() == [2]
    assert board.crash_time(2) == to_s(cluster.sim.now)
    # a dead node runs nothing
    assert len(cluster.nodes[2].background) == 0
    (mark,) = cluster.obs.events
    assert (mark.name, mark.ph, mark.pid, mark.ts) == (
        "fault.crash", "i", 2, to_s(cluster.sim.now))


def test_time_triggered_crash():
    cluster = make_cluster()
    cluster.install_failure_script(node_crash(1, at_time=2.5))
    p = cluster.sim.spawn(spin(5.0), name="clock")
    cluster.sim.run_all([p])
    assert cluster.failure_board.crashed(1)
    assert cluster.failure_board.crash_time(1) == 2.5


# ---------------------------------------------------------------------------
# slowdown
# ---------------------------------------------------------------------------

def test_slowdown_is_transient():
    cluster = make_cluster()
    script = FailureScript(time_faults=[
        TimeFault(time=1.0, node=0, action="slowdown", count=3, duration=2.0)])
    cluster.install_failure_script(script)
    seen = []
    cluster.sim.schedule(to_ns(1.5), lambda: seen.append(len(cluster.nodes[0].background)))
    cluster.sim.schedule(to_ns(4.0), lambda: seen.append(len(cluster.nodes[0].background)))
    p = cluster.sim.spawn(spin(5.0), name="clock")
    cluster.sim.run_all([p])
    assert seen == [3, 0]


def test_slowdown_without_duration_persists():
    cluster = make_cluster()
    script = FailureScript(time_faults=[
        TimeFault(time=1.0, node=0, action="slowdown", count=2)])
    cluster.install_failure_script(script)
    p = cluster.sim.spawn(spin(5.0), name="clock")
    cluster.sim.run_all([p])
    assert len(cluster.nodes[0].background) == 2


# ---------------------------------------------------------------------------
# kill / inject
# ---------------------------------------------------------------------------

def test_kill_requires_registered_app_procs():
    cluster = make_cluster()
    cluster.install_failure_script(FailureScript(cycle_faults=[
        CycleFault(cycle=0, node=1, action="kill")]))
    with pytest.raises(SimulationError):
        cluster.notify_cycle(0)


def test_kill_terminates_registered_proc():
    cluster = make_cluster()
    victim = cluster.sim.spawn(spin(), name="victim", node=cluster.nodes[1])
    cluster.register_app_proc(1, victim)
    cluster.install_failure_script(FailureScript(time_faults=[
        TimeFault(time=1.0, node=1, action="kill")]))
    clock = cluster.sim.spawn(spin(2.0), name="clock")
    cluster.sim.run_all([clock])
    assert victim.state == ProcState.FAILED
    assert "killed" in str(victim.error)
    assert cluster.failure_board.killed(1) and cluster.failure_board.failed(1)


def test_inject_delivers_catchable_fault():
    cluster = make_cluster()
    log = []

    def victim_prog():
        try:
            yield Sleep(1000.0)
        except InjectedFault:
            log.append("caught")

    victim = cluster.sim.spawn(victim_prog(), name="victim",
                               node=cluster.nodes[0])
    cluster.register_app_proc(0, victim)
    cluster.install_failure_script(FailureScript(time_faults=[
        TimeFault(time=1.0, node=0, action="inject")]))
    clock = cluster.sim.spawn(spin(2.0), name="clock")
    cluster.sim.run_all([clock, victim])
    assert log == ["caught"]
    assert victim.state == ProcState.DONE


# ---------------------------------------------------------------------------
# partition / heal
# ---------------------------------------------------------------------------

def test_partition_holds_and_heal_retransmits():
    cluster = make_cluster(4)
    net = cluster.network
    script = FailureScript(time_faults=[
        TimeFault(time=1.0, node=0, action="partition", peers=(1,)),
        TimeFault(time=3.0, node=0, action="heal"),
    ])
    cluster.install_failure_script(script)
    delivered = []
    # sent while partitioned: {0,1} vs {2,3}
    cluster.sim.schedule(
        to_ns(2.0), lambda: net.transmit(0, 2, 1000, lambda: delivered.append(("x", cluster.sim.now))))
    cluster.sim.schedule(
        to_ns(2.0), lambda: net.transmit(0, 1, 1000, lambda: delivered.append(("i", cluster.sim.now))))
    probe = []
    cluster.sim.schedule(to_ns(2.5), lambda: probe.append((net.partitioned, net.n_held)))
    clock = cluster.sim.spawn(spin(5.0), name="clock")
    cluster.sim.run_all([clock])
    # intra-island traffic flowed; the crossing message waited for heal
    assert probe == [(True, 1)]
    kinds = dict(delivered)
    assert kinds["i"] < to_ns(3.0)
    assert kinds["x"] >= to_ns(3.0)
    assert not net.partitioned and net.n_held == 0


def test_partition_validates_island():
    cluster = make_cluster()
    script = FailureScript(time_faults=[
        TimeFault(time=0.5, node=99, action="partition")])
    cluster.install_failure_script(script)
    clock = cluster.sim.spawn(spin(1.0), name="clock")
    with pytest.raises(SimulationError):
        cluster.sim.run_all([clock])
