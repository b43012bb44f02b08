"""Edge-case tests for the MPI layer: rendezvous corner cases,
request semantics, wildcard interactions, and tag-space behavior."""

import numpy as np
import pytest

from repro.config import ClusterSpec, NetworkSpec, NodeSpec, pentium_cluster
from repro.mpi import ANY_SOURCE, ANY_TAG, Group, run_spmd
from repro.mpi import collectives as coll
from repro.mpi.datatypes import SUM
from repro.mpi.group import COLL_TAG_BASE
from repro.simcluster import Cluster, Sleep, to_s


def make_cluster(n=2, eager=1 << 20):
    return Cluster(ClusterSpec(
        n_nodes=n,
        node=NodeSpec(speed=1e8),
        network=NetworkSpec(latency=1e-5, bandwidth=1e8,
                            eager_threshold=eager),
    ))


def test_rendezvous_self_send():
    cluster = make_cluster(1, eager=8)

    def program(ep):
        req = yield from ep.isend(0, tag=0, payload=np.arange(64.0))
        data, _ = yield from ep.recv(0, tag=0)
        assert np.array_equal(data, np.arange(64.0))
        yield from req.wait()

    run_spmd(cluster, program)


def test_rendezvous_matched_by_wildcard_recv():
    cluster = make_cluster(2, eager=8)

    def program(ep):
        if ep.rank == 0:
            yield from ep.send(1, tag=5, payload=np.ones(128))
        else:
            data, st = yield from ep.recv(ANY_SOURCE, ANY_TAG)
            assert st.source == 0 and st.tag == 5
            assert data.shape == (128,)

    run_spmd(cluster, program)


def test_mixed_eager_and_rendezvous_ordering():
    """A small eager message and a large rendezvous message on the
    same (src, tag) must still be received in send order."""
    cluster = make_cluster(2, eager=1024)

    def program(ep):
        if ep.rank == 0:
            yield from ep.send(1, tag=1, payload=np.full(8, 1.0))      # eager
            yield from ep.send(1, tag=1, payload=np.full(4096, 2.0))   # rendezvous
            yield from ep.send(1, tag=1, payload=np.full(8, 3.0))      # eager
        else:
            yield Sleep(0.01)
            firsts = []
            for _ in range(3):
                data, _ = yield from ep.recv(0, tag=1)
                firsts.append(float(data[0]))
            # rendezvous data lags its RTS, but matching order is FIFO
            assert firsts == [1.0, 2.0, 3.0]

    run_spmd(cluster, program)


def test_request_test_transitions():
    cluster = make_cluster(2)
    states = []

    def program(ep):
        if ep.rank == 0:
            yield Sleep(0.05)
            yield from ep.send(1, tag=0, payload="x")
        else:
            req = ep.irecv(0, tag=0)
            states.append(req.test())   # nothing sent yet
            yield Sleep(0.1)
            states.append(req.test())   # arrived while sleeping
            value = yield from req.wait()
            assert value[0] == "x"

    run_spmd(cluster, program)
    assert states == [False, True]


def test_isend_request_completes_for_eager():
    cluster = make_cluster(2)
    flags = []

    def program(ep):
        if ep.rank == 0:
            req = yield from ep.isend(1, tag=0, payload="hello")
            yield Sleep(0.05)
            flags.append(req.test())
            yield from req.wait()
        else:
            yield Sleep(0.1)
            yield from ep.recv(0, tag=0)

    run_spmd(cluster, program)
    assert flags == [True]


def test_wildcard_recv_fifo_across_sources():
    cluster = make_cluster(3)

    def program(ep):
        if ep.rank == 0:
            yield from ep.send(2, tag=1, payload="a")
        elif ep.rank == 1:
            yield Sleep(0.01)
            yield from ep.send(2, tag=1, payload="b")
        else:
            yield Sleep(0.05)
            v1, _ = yield from ep.recv(ANY_SOURCE, tag=1)
            v2, _ = yield from ep.recv(ANY_SOURCE, tag=1)
            assert (v1, v2) == ("a", "b")  # arrival order

    run_spmd(cluster, program)


def test_group_tags_unique_per_collective_call():
    g = Group([0, 1, 2])
    tags = {g.next_tag(0) for _ in range(50)}
    assert len(tags) == 50
    assert min(tags) >= COLL_TAG_BASE
    # another group's tag space does not collide
    g2 = Group([0, 1, 2])
    assert g2.next_tag(0) not in tags


def test_user_tags_below_collective_space():
    assert 10_000 < COLL_TAG_BASE  # apps using small tags are safe


def test_reduce_non_power_of_two_with_noncommutative_check():
    """The binomial reduce applies the op pairwise; for SUM the result
    is exact regardless of association."""
    n = 5
    cluster = make_cluster(n)
    group = Group(list(range(n)))

    def program(ep):
        value = float(2 ** group.rel(ep.rank))
        total = yield from coll.reduce(ep, group, value, SUM, root=2)
        if group.rel(ep.rank) == 2:
            assert total == 31.0
        else:
            assert total is None

    run_spmd(cluster, program)


def test_single_member_group_collectives_are_local():
    cluster = make_cluster(1)
    group = Group([0])

    def program(ep):
        v = yield from coll.allreduce(ep, group, 42, SUM)
        assert v == 42
        out = yield from coll.allgather(ep, group, "me")
        assert out == ["me"]
        out = yield from coll.allgather_dissemination(ep, group, "me")
        assert out == ["me"]
        yield from coll.barrier(ep, group)

    run_spmd(cluster, program)
    assert cluster.network.n_messages == 0


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
def test_allgather_dissemination_correct(n):
    cluster = make_cluster(n)
    group = Group(list(range(n)))

    def program(ep):
        me = group.rel(ep.rank)
        out = yield from coll.allgather_dissemination(ep, group, me * me)
        assert out == [r * r for r in range(n)]

    run_spmd(cluster, program)


def test_dissemination_cheaper_than_ring_at_scale():
    def cost(fn, n):
        cluster = make_cluster(n)
        group = Group(list(range(n)))

        def program(ep):
            yield from fn(ep, group, ep.rank)

        run_spmd(cluster, program)
        return cluster.sim.now

    ring = cost(coll.allgather, 16)
    diss = cost(coll.allgather_dissemination, 16)
    assert diss < ring


def test_dissemination_allgather_under_5ms_at_16_pentium_ranks():
    """The runtime's per-cycle load exchange stays cheap in simulated
    time: a 16-rank dissemination allgather on the paper's Pentium
    cluster takes under 5 ms."""
    cluster = Cluster(pentium_cluster(16))
    group = Group(list(range(16)))

    def program(ep):
        for _ in range(10):
            yield from coll.allgather_dissemination(ep, group, ep.rank)

    run_spmd(cluster, program)
    assert to_s(cluster.sim.now) / 10 < 0.005
