"""Unit tests for repro.resilience.failures: the FailureScript trigger
machinery (the Script base it shares with LoadScript) and each fault
kind's effect on the cluster, independent of the Dyn-MPI runtime."""

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
from repro.simcluster import (
    Cluster,
    LoadScript,
    ProcState,
    Sleep,
    TimeTrigger,
    to_ns,
    to_s,
)


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
    assert node_crash(1, at_cycle=5).cycle_triggers[0].cycle == 5
    assert node_crash(1, at_time=2.0).time_triggers[0].time == 2.0


def test_uninstalled_script_cannot_fire():
    script = FailureScript(cycle_faults=[
        CycleFault(cycle=0, node=0, action="crash")])
    with pytest.raises(ConfigError):
        script.on_cycle(0)


def test_cycle_fault_fires_once():
    cluster = make_cluster()
    script = FailureScript(cycle_faults=[
        CycleFault(cycle=3, node=1, action="slowdown", count=2)])
    cluster.install_script(script)
    cluster.notify_cycle(3)
    cluster.notify_cycle(3)  # duplicate notification must not re-fire
    assert len(cluster.nodes[1].background) == 2


# ---------------------------------------------------------------------------
# crash
# ---------------------------------------------------------------------------

def test_crash_marks_board_and_stops_competing():
    cluster = make_cluster(observe=True)
    cluster.nodes[2].start_competing()
    cluster.install_script(node_crash(2, at_cycle=5))
    cluster.notify_cycle(5)
    node = cluster.nodes[2]
    assert node.crashed_at == cluster.sim.now and node.failed
    assert node.killed_at is None
    assert [n.node_id for n in cluster.nodes if n.failed] == [2]
    # a dead node runs nothing
    assert len(cluster.nodes[2].background) == 0
    (mark,) = cluster.obs.events
    assert (mark.name, mark.ph, mark.pid, mark.ts) == (
        "fault.crash", "i", 2, to_s(cluster.sim.now))


def test_time_triggered_crash():
    cluster = make_cluster()
    cluster.install_script(node_crash(1, at_time=2.5))
    p = cluster.sim.spawn(spin(5.0), name="clock")
    cluster.sim.run_all([p])
    assert cluster.nodes[1].crashed_at == to_ns(2.5)


# ---------------------------------------------------------------------------
# slowdown
# ---------------------------------------------------------------------------

def test_slowdown_is_transient():
    cluster = make_cluster()
    script = FailureScript(time_faults=[
        TimeFault(time=1.0, node=0, action="slowdown", count=3, duration=2.0)])
    cluster.install_script(script)
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
    cluster.install_script(script)
    p = cluster.sim.spawn(spin(5.0), name="clock")
    cluster.sim.run_all([p])
    assert len(cluster.nodes[0].background) == 2


# ---------------------------------------------------------------------------
# competitor lifecycle: a load script and a fault script on one node
# ---------------------------------------------------------------------------

def _run_scripts(load, faults, until=0.005, n=2):
    """Install ``load`` then ``faults`` (time triggers in ms) on a fresh
    cluster, run to ``until`` seconds; returns node 0's competitors."""
    cluster = make_cluster(n)
    cluster.install_script(LoadScript(time_triggers=[
        TimeTrigger(time=t / 1000, node=0, action=a) for t, a in load]))
    cluster.install_script(FailureScript(time_faults=[
        TimeFault(time=t / 1000, node=0, action=a, duration=d / 1000)
        for t, a, d in faults]))
    cluster.sim.run_all([cluster.sim.spawn(spin(until), name="clock")])
    return cluster.nodes[0].background


def test_competitor_names_reuse_the_lowest_free_index():
    """A load stop that is not of the node's newest competitor frees a
    name below the count; the next start takes it rather than
    re-issuing the live ``cp1@n0``."""
    running = _run_scripts(load=[(1, "start"), (3, "stop"), (4, "start")],
                           faults=[(2, "slowdown", 0)])
    assert sorted(running) == ["cp0@n0", "cp1@n0"]


def test_load_stop_after_a_crash_forgets_the_crashed_competitors():
    assert not _run_scripts(load=[(1, "start"), (3, "stop")],
                            faults=[(2, "crash", 0)])


def test_slowdown_end_after_a_crash_forgets_the_crashed_competitors():
    assert not _run_scripts(load=[], faults=[(1, "slowdown", 2), (2, "crash", 0)])


def test_slowdown_end_never_stops_a_competitor_that_reuses_its_name():
    """The crash frees ``cp0@n0``; the load start reissues it; the
    slowdown's end must leave the load's competitor running."""
    running = _run_scripts(load=[(3, "start")],
                           faults=[(1, "slowdown", 3), (2, "crash", 0)])
    assert list(running) == ["cp0@n0"]


# ---------------------------------------------------------------------------
# kill / inject
# ---------------------------------------------------------------------------

def test_kill_requires_a_process_spawned_on_the_node():
    cluster = make_cluster()
    cluster.install_script(FailureScript(cycle_faults=[
        CycleFault(cycle=0, node=1, action="kill")]))
    with pytest.raises(SimulationError):
        cluster.notify_cycle(0)


def test_kill_terminates_registered_proc():
    cluster = make_cluster()
    victim = cluster.sim.spawn(spin(), name="victim", node=cluster.nodes[1])
    cluster.install_script(FailureScript(time_faults=[
        TimeFault(time=1.0, node=1, action="kill")]))
    clock = cluster.sim.spawn(spin(2.0), name="clock")
    cluster.sim.run_all([clock])
    assert victim.state == ProcState.FAILED
    assert "killed" in str(victim.error)
    assert cluster.nodes[1].killed_at == to_ns(1.0) and cluster.nodes[1].failed
    assert cluster.nodes[1].crashed_at is None


def test_kill_after_every_process_finished_is_a_no_op():
    """The node keeps its finished processes, so a kill there finds its
    targets, records the kill and ends nothing."""
    cluster = make_cluster()
    done = cluster.sim.spawn(spin(0.5), name="done", node=cluster.nodes[1])
    cluster.install_script(FailureScript(time_faults=[
        TimeFault(time=1.0, node=1, action="kill")]))
    cluster.sim.run_all([cluster.sim.spawn(spin(2.0), name="clock")])
    assert done.state == ProcState.DONE and done.error is None
    assert cluster.nodes[1].procs == [done]
    assert cluster.nodes[1].killed_at == to_ns(1.0)


def test_node_fault_record_keeps_the_first_crash_and_the_first_kill():
    cluster = make_cluster()
    cluster.sim.spawn(spin(), name="victim", node=cluster.nodes[1])
    cluster.install_script(FailureScript(time_faults=[
        TimeFault(time=t, node=1, action=a) for t, a in
        [(1.0, "kill"), (2.0, "crash"), (3.0, "inject"), (4.0, "crash")]]))
    cluster.sim.run_all([cluster.sim.spawn(spin(5.0), name="clock")])
    node = cluster.nodes[1]
    assert (node.crashed_at, node.killed_at) == (to_ns(2.0), to_ns(1.0))
    assert node.failed and not cluster.nodes[0].failed


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
    cluster.install_script(FailureScript(time_faults=[
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
    cluster.install_script(script)
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
    cluster.install_script(script)
    clock = cluster.sim.spawn(spin(1.0), name="clock")
    with pytest.raises(SimulationError):
        cluster.sim.run_all([clock])
