"""Fault-injection tests: exceptions delivered into simulated
processes, process kills, and what the rest of the job observes."""

import pytest

from repro.config import ClusterSpec, NodeSpec
from repro.errors import DeadlockError
from repro.simcluster import Cluster, Compute, ProcState, Simulator, Sleep, to_ns


class InjectedFault(Exception):
    pass


def test_injected_exception_kills_uncatching_process():
    sim = Simulator()

    def prog():
        yield Sleep(10.0)

    p = sim.spawn(prog(), name="victim")
    sim.schedule(to_ns(1.0), lambda: sim.inject(p, InjectedFault("zap")))
    sim.run(until=to_ns(5.0))
    assert p.state == ProcState.FAILED
    assert isinstance(p.error, InjectedFault)
    assert sim.now <= to_ns(5.0)


def test_injected_exception_can_be_caught_and_survived():
    sim = Simulator()
    log = []

    def prog():
        try:
            yield Sleep(10.0)
        except InjectedFault:
            log.append("caught")
        yield Sleep(1.0)
        log.append("done")

    p = sim.spawn(prog(), name="survivor")
    sim.schedule(to_ns(1.0), lambda: sim.inject(p, InjectedFault()))
    sim.run()
    assert log == ["caught", "done"]
    assert p.state == ProcState.DONE


def test_inject_into_finished_process_is_noop():
    sim = Simulator()

    def prog():
        yield Sleep(0.1)

    p = sim.spawn(prog(), name="quick")
    sim.schedule(to_ns(1.0), lambda: sim.inject(p, InjectedFault()))
    sim.run()
    assert p.state == ProcState.DONE
    assert p.error is None


def test_kill_terminates_mid_compute():
    cluster = Cluster(ClusterSpec(n_nodes=1, node=NodeSpec(speed=1e6)))
    sim = cluster.sim

    def prog():
        yield Compute(1e9)  # 1000 s of work

    p = sim.spawn(prog(), name="hog", node=cluster.nodes[0])
    sim.schedule(to_ns(2.0), lambda: sim.kill(p))
    sim.run(until=to_ns(10.0))
    assert p.state == ProcState.FAILED
    assert "killed" in str(p.error)
    assert sim.now == to_ns(2.0)  # the cancelled compute left no event


def test_killed_rank_deadlocks_its_peer():
    """A rank dying mid-protocol leaves its partner waiting forever —
    surfaced as DeadlockError rather than a hang."""
    cluster = Cluster(ClusterSpec(n_nodes=2, node=NodeSpec(speed=1e8)))

    def program(ep):
        if ep.rank == 0:
            yield Sleep(5.0)  # would send later, but gets killed first
            yield from ep.send(1, tag=0, payload="never")
        else:
            yield from ep.recv(0, tag=0)

    # spawn manually so we can kill rank 0
    from repro.mpi import make_comm

    comm = make_comm(cluster)
    procs = []
    for rank in range(2):
        procs.append(cluster.sim.spawn(
            program(comm.endpoint(rank)), name=f"rank{rank}",
            node=cluster.nodes[rank],
        ))
    cluster.sim.schedule(to_ns(1.0), lambda: cluster.sim.kill(procs[0]))
    with pytest.raises(DeadlockError) as exc:
        cluster.sim.run()
    assert "rank1" in str(exc.value)


def test_finish_cleans_up_node_process_table():
    cluster = Cluster(ClusterSpec(n_nodes=1, node=NodeSpec(speed=1e8)))

    def prog():
        yield Sleep(1.0)

    p = cluster.sim.spawn(prog(), name="p", node=cluster.nodes[0])
    assert p in cluster.nodes[0].procs
    cluster.sim.run()
    assert p not in cluster.nodes[0].procs


def test_inject_at_compute_completion_resumes_once():
    """An inject landing at the very instant a ``Compute`` completes
    abandons that compute: its completion must not resume the process a
    second time and cut the sleep it went on to short."""
    cluster = Cluster(ClusterSpec(n_nodes=1, node=NodeSpec(speed=1e6)))
    sim = cluster.sim
    wakes = []

    def prog():
        try:
            yield Compute(1e6)  # ends at t=1.0
        except InjectedFault:
            pass
        yield Sleep(5.0)
        wakes.append(sim.now)

    p = sim.spawn(prog(), name="p", node=cluster.nodes[0])
    sim.schedule(to_ns(1.0), lambda: sim.inject(p, InjectedFault()))
    sim.run()
    assert wakes == [to_ns(6.0)]
    assert p.state == ProcState.DONE
