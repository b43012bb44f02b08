"""The simulator's own tracks on the dynscope recorder: every observed
run records CPU slices (``cluster.obs.slices``) and wire flights
(``cluster.obs.flights``) natively."""

import pytest

from repro.config import ClusterSpec, NodeSpec
from repro.errors import SimulationError
from repro.mpi import run_spmd
from repro.simcluster import Cluster, Compute, Sleep, to_s


def make_cluster(n=2):
    return Cluster(ClusterSpec(n_nodes=n, node=NodeSpec(speed=1e8),
                               observe=True))


def run_app(cluster, *steps):
    def prog():
        yield from steps

    p = cluster.sim.spawn(prog(), name="app", node=cluster.nodes[0])
    cluster.sim.run_all([p])
    return cluster.obs


def test_traces_cpu_slices_and_busy_time():
    # 10 ms, a sleep, 20 ms
    rec = run_app(make_cluster(1), Compute(1e6), Sleep(0.01), Compute(2e6))
    assert rec.busy_time(0, "app") == 0.03
    assert rec.busy_time(0) == to_s(sum(end - start for _, _, start, end in rec.slices))
    assert len(rec.slices) >= 2


def test_traces_competing_slices():
    cluster = make_cluster(1)
    cluster.nodes[0].start_competing("cp0")
    # the competing process owns the CPU during the sleep
    rec = run_app(cluster, Compute(1e6), Sleep(0.05), Compute(1e6))
    assert rec.busy_time(0, "app") == 0.02
    assert rec.busy_time(0, "cp0") > 0.03
    # one CPU: whoever holds it, a node's slices never overlap
    mine = sorted((start, end) for node, _, start, end in rec.slices if node == 0)
    assert all(a[1] <= b[0] for a, b in zip(mine, mine[1:]))


def test_traces_messages():
    cluster = make_cluster(2)

    def program(ep):
        if ep.rank == 0:
            yield from ep.send(1, tag=0, payload=None, nbytes=5000)
        else:
            yield from ep.recv(0, tag=0)

    run_spmd(cluster, program)
    flights = cluster.obs.flights
    assert sum(nbytes for src, dst, nbytes, _, _ in flights
               if (src, dst) == (0, 1)) == 5000
    assert not any((src, dst) == (1, 0) for src, dst, *_ in flights)
    assert len(flights) == cluster.network.n_messages
    _, _, _, sent, delivered = flights[0]
    assert delivered > sent
    # a message held across a partition flies when heal() sends it
    cluster.network.partition({1})
    cluster.network.transmit(0, 1, 100, lambda: None)
    assert len(flights) == 1
    cluster.network.heal()
    assert flights[1][:4] == (0, 1, 100, cluster.sim.now)


def test_timeline_rendering():
    rec = run_app(make_cluster(1), Compute(1e6), Sleep(0.01), Compute(1e6))
    line = rec.timeline(0, width=30)
    assert line.startswith("n0 |")
    assert "a" in line and "." in line
    with pytest.raises(SimulationError):
        rec.timeline(0, t0=5.0, t1=5.0)
