"""Point-to-point messaging tests: matching, ordering, blocking
semantics, non-blocking requests, and timing of the network model."""

import numpy as np
import pytest

from repro.config import ClusterSpec, NetworkSpec, NodeSpec
from repro.errors import DeadlockError, MPIError
from repro.mpi import ANY_SOURCE, ANY_TAG, run_spmd
from repro.obs.scenario import RemovalScenario, run_removal
from repro.simcluster import BackgroundJob, Cluster, SimProcess, Sleep, to_ns, to_s
from repro.simcluster.cpu import RoundRobinCPU


def make_cluster(n=2, *, eager=1 << 20, cpu_per_byte=0.0, cpu_per_msg=0.0,
                 latency=1e-4, bandwidth=1e8, speed=1e6):
    spec = ClusterSpec(
        n_nodes=n,
        node=NodeSpec(speed=speed),
        network=NetworkSpec(
            latency=latency, bandwidth=bandwidth,
            cpu_per_byte=cpu_per_byte, cpu_per_msg=cpu_per_msg,
            eager_threshold=eager,
        ),
    )
    return Cluster(spec)


def test_send_recv_roundtrip_object():
    cluster = make_cluster()

    def program(ep):
        if ep.rank == 0:
            yield from ep.send(1, tag=5, payload={"x": 1})
            reply, status = yield from ep.recv(1, tag=6)
            assert status.source == 1
            return reply
        else:
            data, status = yield from ep.recv(0, tag=5)
            assert data == {"x": 1}
            assert status.tag == 5
            yield from ep.send(0, tag=6, payload="ack")
            return None

    results = run_spmd(cluster, program)
    assert results[0] == "ack"


def test_numpy_payload_copied_on_send():
    cluster = make_cluster()

    def program(ep):
        if ep.rank == 0:
            buf = np.arange(4.0)
            yield from ep.send(1, tag=1, payload=buf)
            buf[:] = -1  # must not corrupt the in-flight message
        else:
            data, _ = yield from ep.recv(0, tag=1)
            assert np.array_equal(data, np.arange(4.0))
            yield Sleep(0)

    run_spmd(cluster, program)


def test_message_ordering_same_pair_preserved():
    cluster = make_cluster()

    def program(ep):
        if ep.rank == 0:
            for i in range(10):
                yield from ep.send(1, tag=3, payload=i)
        else:
            seen = []
            for _ in range(10):
                v, _ = yield from ep.recv(0, tag=3)
                seen.append(v)
            assert seen == list(range(10))

    run_spmd(cluster, program)


def test_tag_selectivity():
    cluster = make_cluster()

    def program(ep):
        if ep.rank == 0:
            yield from ep.send(1, tag=1, payload="one")
            yield from ep.send(1, tag=2, payload="two")
        else:
            v2, _ = yield from ep.recv(0, tag=2)
            v1, _ = yield from ep.recv(0, tag=1)
            assert (v1, v2) == ("one", "two")

    run_spmd(cluster, program)


def test_any_source_any_tag():
    cluster = make_cluster(3)

    def program(ep):
        if ep.rank in (0, 1):
            yield from ep.send(2, tag=ep.rank + 10, payload=ep.rank)
        else:
            got = set()
            for _ in range(2):
                v, status = yield from ep.recv(ANY_SOURCE, ANY_TAG)
                assert status.source == v
                got.add(v)
            assert got == {0, 1}

    run_spmd(cluster, program)


def test_recv_blocks_until_message():
    cluster = make_cluster()
    times = {}

    def program(ep):
        if ep.rank == 0:
            yield Sleep(2.0)
            yield from ep.send(1, tag=0, payload="late")
        else:
            _, _ = yield from ep.recv(0, tag=0)
            times["recv_done"] = ep.comm.sim.now

    run_spmd(cluster, program)
    assert times["recv_done"] >= 2.0


def test_unmatched_recv_deadlocks():
    cluster = make_cluster()

    def program(ep):
        if ep.rank == 1:
            yield from ep.recv(0, tag=99)
        else:
            yield Sleep(0.1)

    with pytest.raises(DeadlockError):
        run_spmd(cluster, program)


def test_send_to_invalid_rank_raises():
    cluster = make_cluster()

    def program(ep):
        if ep.rank == 0:
            yield from ep.send(5, tag=0)
        else:
            yield Sleep(0)

    with pytest.raises(MPIError):
        run_spmd(cluster, program)


def test_eager_send_does_not_block():
    """An eager sender finishes even though the receiver never posts
    a recv until much later."""
    cluster = make_cluster(eager=1 << 20)
    t_send_done = {}

    def program(ep):
        if ep.rank == 0:
            yield from ep.send(1, tag=0, payload=np.zeros(64))
            t_send_done["t"] = ep.comm.sim.now
        else:
            yield Sleep(5.0)
            yield from ep.recv(0, tag=0)

    run_spmd(cluster, program)
    assert t_send_done["t"] < 1.0


def test_rendezvous_send_blocks_until_recv_posted():
    cluster = make_cluster(eager=16)  # force rendezvous
    t_send_done = {}

    def program(ep):
        if ep.rank == 0:
            yield from ep.send(1, tag=0, payload=np.zeros(1024))
            t_send_done["t"] = ep.comm.sim.now
        else:
            yield Sleep(5.0)
            data, _ = yield from ep.recv(0, tag=0)
            assert data.shape == (1024,)

    run_spmd(cluster, program)
    assert t_send_done["t"] >= 5.0


def test_wire_time_latency_plus_bandwidth():
    # zero CPU cost; 1 MB at 1e8 B/s = 10ms + 0.1ms latency
    cluster = make_cluster(latency=1e-4, bandwidth=1e8, eager=1 << 30)
    arrived = {}

    def program(ep):
        if ep.rank == 0:
            yield from ep.send(1, tag=0, payload=None, nbytes=10**6)
        else:
            _, status = yield from ep.recv(0, tag=0)
            arrived["t"] = to_s(ep.comm.sim.now)
            assert status.nbytes == 10**6

    run_spmd(cluster, program)
    # cut-through switch: uncontended time = latency + nbytes/bandwidth
    assert arrived["t"] == pytest.approx(0.01 + 1e-4, rel=0.05)


def test_comm_cpu_cost_charged_to_sender_and_receiver():
    cluster = make_cluster(cpu_per_msg=1000.0, cpu_per_byte=0.0, speed=1e6)

    def program(ep):
        if ep.rank == 0:
            yield from ep.send(1, tag=0, payload=None, nbytes=100)
        else:
            yield from ep.recv(0, tag=0)

    comm_procs = run_spmd(cluster, program)
    # Each side computed 1000 units at 1e6 units/s = 1 ms of CPU
    ranks = [p for p in cluster.sim.processes if p.name.startswith("rank")]
    for p in ranks:
        assert p.cpu_time == to_ns(1e-3)


def test_isend_irecv_completion():
    cluster = make_cluster()

    def program(ep):
        if ep.rank == 0:
            reqs = []
            for i in range(5):
                reqs.append((yield from ep.isend(1, tag=i, payload=i)))
            for r in reqs:
                yield from r.wait()
        else:
            reqs = [ep.irecv(0, tag=i) for i in range(5)]
            vals = []
            for r in reqs:
                (v, status) = yield from r.wait()
                vals.append(v)
            assert vals == list(range(5))

    run_spmd(cluster, program)


def rank_proc(cluster, rank):
    return next(p for p in cluster.sim.processes if p.name == f"rank{rank}")


def test_fire_and_forget_isend_is_delivered_and_charged_to_its_sender():
    """A worker's last act is a DONE isend it never waits on: the
    message still arrives, and its CPU charge is on the worker's clock."""
    cluster = make_cluster(cpu_per_msg=5000.0, cpu_per_byte=2.0)
    got = []

    def program(ep):
        if ep.rank == 1:
            yield from ep.isend(0, tag=9, payload=None, nbytes=100)
            return None
        _, status = yield from ep.recv(1, tag=9)
        got.append(status.nbytes)

    run_spmd(cluster, program)
    assert got == [100]
    assert rank_proc(cluster, 1).cpu_time == to_ns(cluster.network.cpu_cost(100) / 1e6)


def test_irecv_pays_the_receive_charge_at_its_first_wait_only():
    """A master polls ``irecv(...).test()`` between sleeps: the polls
    cost nothing, the first ``wait()`` costs exactly the receive charge
    ``recv`` pays, and a second ``wait()`` costs nothing again."""
    cluster = make_cluster(cpu_per_msg=5000.0, cpu_per_byte=2.0)
    clocks = []

    def program(ep):
        if ep.rank == 1:
            yield Sleep(0.01)
            yield from ep.send(0, tag=3, payload=None, nbytes=800)
            return None
        proc = rank_proc(cluster, 0)
        req = ep.irecv(1, tag=3)
        while not req.test():
            yield Sleep(0.004)
        clocks.append(proc.cpu_time)
        _, status = yield from req.wait()
        clocks.append(proc.cpu_time)
        yield from req.wait()
        clocks.append(proc.cpu_time)
        return status.nbytes

    assert run_spmd(cluster, program)[0] == 800
    assert clocks[0] == 0
    assert clocks[1] - clocks[0] == to_ns(cluster.network.cpu_cost(800) / 1e6)
    assert clocks[2] == clocks[1]


def test_every_cpu_job_belongs_to_a_process_or_a_competitor(monkeypatch):
    """Messages are paid by the process that posts them: no phantom
    schedulable ever reaches a CPU, even on a loaded removal run."""
    owners = set()
    real_enqueue = RoundRobinCPU._enqueue

    def spy(cpu, job):
        owners.add(type(job.proc))
        return real_enqueue(cpu, job)

    monkeypatch.setattr(RoundRobinCPU, "_enqueue", spy)
    result, _cluster = run_removal(RemovalScenario(), observe=False)
    assert result.events  # the run adapted: messages under load
    assert owners == {SimProcess, BackgroundJob}


def test_irecv_posted_before_send_matches():
    cluster = make_cluster()

    def program(ep):
        if ep.rank == 1:
            req = ep.irecv(0, tag=7)
            yield Sleep(0.001)
            (v, _) = yield from req.wait()
            assert v == "x"
        else:
            yield Sleep(0.5)
            yield from ep.send(1, tag=7, payload="x")

    run_spmd(cluster, program)


def test_iprobe_detects_queued_message():
    cluster = make_cluster()
    probes = []

    def program(ep):
        if ep.rank == 0:
            yield from ep.send(1, tag=4, payload="hello")
            yield Sleep(0)
        else:
            probes.append(ep.iprobe(0, tag=4))  # before arrival
            yield Sleep(1.0)
            st = ep.iprobe(0, tag=4)
            probes.append(st)
            yield from ep.recv(0, tag=4)
            probes.append(ep.iprobe(0, tag=4))

    run_spmd(cluster, program)
    assert probes[0] is None
    assert probes[1] is not None and probes[1].source == 0
    assert probes[2] is None


def test_sendrecv_exchange_no_deadlock():
    cluster = make_cluster(4, eager=0)  # rendezvous everything

    def program(ep):
        right = (ep.rank + 1) % ep.size
        left = (ep.rank - 1) % ep.size
        val, _ = yield from ep.sendrecv(right, 9, ep.rank, left, 9,
                                        nbytes=8192)
        assert val == left

    run_spmd(cluster, program)


def test_self_send_local_delivery():
    cluster = make_cluster(1)

    def program(ep):
        yield from ep.send(0, tag=0, payload="self")
        v, _ = yield from ep.recv(0, tag=0)
        return v

    assert run_spmd(cluster, program) == ["self"]


def test_network_counters():
    cluster = make_cluster()

    def program(ep):
        if ep.rank == 0:
            yield from ep.send(1, tag=0, payload=None, nbytes=500)
        else:
            yield from ep.recv(0, tag=0)

    run_spmd(cluster, program)
    assert cluster.network.n_messages == 1
    assert cluster.network.n_bytes == 500


def test_nic_serialization_two_senders_one_receiver():
    """Two simultaneous 1 MB sends into one node must serialize on the
    receiver link: second delivery ~1 tx later than the first."""
    cluster = make_cluster(3, latency=0.0, bandwidth=1e8, eager=1 << 30)
    deliveries = []

    def program(ep):
        if ep.rank in (0, 1):
            yield from ep.send(2, tag=ep.rank, payload=None, nbytes=10**6)
        else:
            for _ in range(2):
                _, st = yield from ep.recv(ANY_SOURCE, ANY_TAG)
                deliveries.append(to_s(ep.comm.sim.now))

    run_spmd(cluster, program)
    assert deliveries[1] - deliveries[0] == pytest.approx(0.01, rel=0.05)
