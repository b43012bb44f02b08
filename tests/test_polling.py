"""Tests for the busy-polling receive mode (2003-era MPICH ch_p4
behavior) — the mechanism behind the paper's node-removal results."""

import pytest

from repro.config import ClusterSpec, NetworkSpec, NodeSpec
from repro.mpi import run_spmd
from repro.simcluster import Cluster, Compute, Sleep, to_s


def make_cluster(recv_mode, n=2, quantum=0.010, speed=1e8):
    return Cluster(ClusterSpec(
        n_nodes=n,
        node=NodeSpec(speed=speed, quantum=quantum),
        network=NetworkSpec(latency=1e-5, bandwidth=1e8,
                            cpu_per_byte=0.0, cpu_per_msg=0.0,
                            recv_mode=recv_mode),
    ))


def test_polling_recv_burns_cpu_while_waiting():
    cluster = make_cluster("polling")
    times = {}

    def program(ep):
        if ep.rank == 0:
            yield Sleep(0.1)  # make the receiver wait 100 ms
            yield from ep.send(1, tag=0, payload="x")
        else:
            _, _ = yield from ep.recv(0, tag=0)
            times["cpu"] = to_s([p for p in ep.comm.sim.processes
                                 if p.name == "rank1"][0].cpu_time)

    run_spmd(cluster, program)
    # the receiver spun for ~the whole wait
    assert times["cpu"] == pytest.approx(0.1, rel=0.1)


def test_blocking_recv_uses_no_cpu_while_waiting():
    cluster = make_cluster("blocking")
    times = {}

    def program(ep):
        if ep.rank == 0:
            yield Sleep(0.1)
            yield from ep.send(1, tag=0, payload="x")
        else:
            _, _ = yield from ep.recv(0, tag=0)
            times["cpu"] = to_s([p for p in ep.comm.sim.processes
                                 if p.name == "rank1"][0].cpu_time)

    run_spmd(cluster, program)
    assert times["cpu"] < 0.001


def test_polling_delivery_correctness():
    """Payloads and ordering are identical to blocking mode."""
    for mode in ("blocking", "polling"):
        cluster = make_cluster(mode)

        def program(ep):
            if ep.rank == 0:
                for i in range(5):
                    yield from ep.send(1, tag=3, payload=i)
            else:
                got = []
                for _ in range(5):
                    v, _ = yield from ep.recv(0, tag=3)
                    got.append(v)
                assert got == list(range(5))

        run_spmd(cluster, program)


def test_polling_on_loaded_node_delays_message_notice():
    """The Figure 6 mechanism: with k competing processes, a polling
    receiver notices an arrived message only when it next gets the
    CPU — a multi-quantum stall that a blocking receiver (with wakeup
    boost) does not suffer."""
    send_times = [0.173, 0.331, 0.489, 0.642, 0.817, 0.971]
    notice = {}
    for mode in ("blocking", "polling"):
        cluster = make_cluster(mode)
        for _ in range(3):
            cluster.nodes[1].start_competing()
        delays = []

        def program(ep):
            sim = ep.comm.sim
            if ep.rank == 0:
                for t_send in send_times:
                    yield Sleep(t_send - to_s(sim.now))
                    yield from ep.send(1, tag=0, payload="x")
            else:
                # burn CPU first so the EMA share is realistic
                yield Compute(1e6)
                for t_send in send_times:
                    _, _ = yield from ep.recv(0, tag=0)
                    delays.append(to_s(sim.now) - t_send)

        run_spmd(cluster, program)
        notice[mode] = sum(delays) / len(delays)
    assert notice["polling"] > notice["blocking"]
    # average stall is on the order of the competing quanta ahead of us
    assert notice["polling"] > 0.005


def test_polling_sub_quantum_chunks_bound_overshoot():
    """On an unloaded node the polling loop notices a message within
    one poll chunk (quantum/100), not a full quantum."""
    cluster = make_cluster("polling")
    arrival = {}

    def program(ep):
        sim = ep.comm.sim
        if ep.rank == 0:
            yield Sleep(0.0501)
            yield from ep.send(1, tag=0, payload="x")
        else:
            _, _ = yield from ep.recv(0, tag=0)
            arrival["t"] = to_s(sim.now)

    run_spmd(cluster, program)
    assert arrival["t"] - 0.0501 < 0.001
