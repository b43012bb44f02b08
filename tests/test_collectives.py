"""Collective algorithm tests across group sizes (including
non-powers-of-two) and over subsets of world ranks."""

import numpy as np
import pytest

from repro.config import ClusterSpec, NetworkSpec, NodeSpec
from repro.errors import MPIError
from repro.mpi import MAX, MIN, PROD, SUM, Group, run_spmd
from repro.mpi.collectives import (
    allgather,
    allreduce,
    barrier,
    bcast,
    gather,
    neighbor_alltoallv,
    reduce,
    scatter,
)
from repro.simcluster import Cluster, Sleep

SIZES = [1, 2, 3, 4, 5, 7, 8]


def make_cluster(n):
    return Cluster(ClusterSpec(
        n_nodes=n,
        node=NodeSpec(speed=1e8),
        network=NetworkSpec(latency=1e-5, bandwidth=1e8),
    ))


@pytest.mark.parametrize("n", SIZES)
def test_bcast_all_roots(n):
    cluster = make_cluster(n)
    group = Group(list(range(n)))

    def program(ep):
        for root in range(n):
            value = f"msg-{root}" if group.rel(ep.rank) == root else None
            got = yield from bcast(ep, group, value, root=root)
            assert got == f"msg-{root}"

    run_spmd(cluster, program)


@pytest.mark.parametrize("n", SIZES)
def test_reduce_sum_every_root(n):
    cluster = make_cluster(n)
    group = Group(list(range(n)))
    expected = sum(range(n))

    def program(ep):
        me = group.rel(ep.rank)
        for root in range(n):
            result = yield from reduce(ep, group, me, SUM, root=root)
            if me == root:
                assert result == expected
            else:
                assert result is None

    run_spmd(cluster, program)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("op,expected_fn", [
    (SUM, lambda vals: sum(vals)),
    (MAX, lambda vals: max(vals)),
    (MIN, lambda vals: min(vals)),
    (PROD, lambda vals: np.prod(vals)),
])
def test_allreduce_ops(n, op, expected_fn):
    cluster = make_cluster(n)
    group = Group(list(range(n)))
    vals = [r + 1 for r in range(n)]

    def program(ep):
        me = group.rel(ep.rank)
        result = yield from allreduce(ep, group, vals[me], op)
        assert result == expected_fn(vals)

    run_spmd(cluster, program)


def test_allreduce_numpy_arrays():
    n = 4
    cluster = make_cluster(n)
    group = Group(list(range(n)))

    def program(ep):
        me = group.rel(ep.rank)
        vec = np.full(8, float(me))
        result = yield from allreduce(ep, group, vec, SUM)
        assert np.allclose(result, sum(range(n)))

    run_spmd(cluster, program)


@pytest.mark.parametrize("n", SIZES)
def test_gather_in_rank_order(n):
    cluster = make_cluster(n)
    group = Group(list(range(n)))

    def program(ep):
        me = group.rel(ep.rank)
        out = yield from gather(ep, group, me * 10, root=0)
        if me == 0:
            assert out == [r * 10 for r in range(n)]
        else:
            assert out is None

    run_spmd(cluster, program)


@pytest.mark.parametrize("n", SIZES)
def test_scatter(n):
    cluster = make_cluster(n)
    group = Group(list(range(n)))

    def program(ep):
        me = group.rel(ep.rank)
        values = [f"v{r}" for r in range(n)] if me == 0 else None
        mine = yield from scatter(ep, group, values, root=0)
        assert mine == f"v{me}"

    run_spmd(cluster, program)


def test_scatter_wrong_length_raises():
    cluster = make_cluster(2)
    group = Group([0, 1])

    def program(ep):
        me = group.rel(ep.rank)
        values = ["only-one"] if me == 0 else None
        if me == 0:
            yield Sleep(0)
            yield from scatter(ep, group, values, root=0)
        else:
            yield Sleep(0)

    with pytest.raises(MPIError):
        run_spmd(cluster, program)


@pytest.mark.parametrize("n", SIZES)
def test_allgather_variable_sizes(n):
    cluster = make_cluster(n)
    group = Group(list(range(n)))

    def program(ep):
        me = group.rel(ep.rank)
        block = np.arange(me + 1, dtype=float)  # ragged contributions
        out = yield from allgather(ep, group, block)
        assert len(out) == n
        for r in range(n):
            assert np.array_equal(out[r], np.arange(r + 1, dtype=float))

    run_spmd(cluster, program)


@pytest.mark.parametrize("n", SIZES)
def test_alltoallv_permutation(n):
    """Full edge set through the sparse collective: the dense
    all-to-all is the special case where every pair is an edge."""
    cluster = make_cluster(n)
    group = Group(list(range(n)))

    def program(ep):
        me = group.rel(ep.rank)
        peers = [j for j in range(n) if j != me]
        out = yield from neighbor_alltoallv(
            ep, group, {j: (f"{me}->{j}", None) for j in peers}, peers)
        assert {j: v for j, (v, _nb) in out.items()} == \
            {j: f"{j}->{me}" for j in peers}

    run_spmd(cluster, program)
    assert cluster.network.n_messages == n * (n - 1)


def test_alltoallv_with_none_blocks():
    """An absent edge is *no* message (the dense exchange shipped a
    control message there), and a member with no edges at all still
    consumes the collective's tag."""
    n = 5
    cluster = make_cluster(n)
    group = Group(list(range(n)))
    # rank 4 has no edges; 0..3 talk to same-parity peers only
    edges = [(i, j) for i in range(4) for j in range(4)
             if i != j and (i + j) % 2 == 0]

    def program(ep):
        me = group.rel(ep.rank)
        out = yield from neighbor_alltoallv(
            ep, group,
            {j: (i * 10 + j, 256) for i, j in edges if i == me},
            [i for i, j in edges if j == me])
        assert out == {i: (i * 10 + j, 256) for i, j in edges if j == me}
        yield Sleep(0.5)
        # every member advanced its tag counter: the next collective on
        # the group matches, the edgeless rank included
        got = yield from allgather(ep, group, me)
        assert got == list(range(n))

    # counted after every edge has landed and before the allgather
    counted = []
    cluster.sim.schedule(
        0.25, lambda: counted.append(cluster.network.n_messages))
    run_spmd(cluster, program)
    assert counted == [len(edges)] == [4]


def test_neighbor_alltoallv_rejects_bad_peers():
    cluster = make_cluster(2)
    group = Group([0, 1])

    def program(ep):
        me = group.rel(ep.rank)
        for sends, recv_from in (({me: (0, None)}, []), ({}, [2]), ({-1: (0, None)}, [])):
            with pytest.raises(MPIError):
                yield from neighbor_alltoallv(ep, group, sends, recv_from)

    run_spmd(cluster, program)


@pytest.mark.parametrize("n", SIZES)
def test_barrier_synchronizes(n):
    cluster = make_cluster(n)
    group = Group(list(range(n)))
    after = []

    def program(ep):
        me = group.rel(ep.rank)
        yield Sleep(me * 0.1)  # stagger arrivals
        yield from barrier(ep, group)
        after.append(ep.comm.sim.now)

    run_spmd(cluster, program)
    # nobody leaves the barrier before the last arrival
    assert min(after) >= (n - 1) * 0.1


def test_collectives_on_subgroup():
    """Collectives over a strict subset of world ranks — the mechanism
    Dyn-MPI uses after physically dropping nodes."""
    n = 5
    cluster = make_cluster(n)
    active = Group([0, 2, 4])  # ranks 1 and 3 "removed"

    def program(ep):
        if ep.rank in active:
            me = active.rel(ep.rank)
            total = yield from allreduce(ep, active, me + 1, SUM)
            assert total == 6
            got = yield from bcast(ep, active, "go" if me == 0 else None, root=0)
            assert got == "go"
        else:
            yield Sleep(0)

    run_spmd(cluster, program)


def test_nonmember_collective_call_raises():
    cluster = make_cluster(2)
    group = Group([0])

    def program(ep):
        if ep.rank == 1:
            yield Sleep(0)
            yield from barrier(ep, group)
        else:
            yield Sleep(0)

    with pytest.raises(MPIError):
        run_spmd(cluster, program)


def test_group_rel_world_roundtrip():
    g = Group([3, 1, 4])
    assert g.rel(3) == 0 and g.rel(1) == 1 and g.rel(4) == 2
    assert [g.world(i) for i in range(3)] == [3, 1, 4]
    assert 1 in g and 0 not in g
    with pytest.raises(MPIError):
        g.rel(9)
    with pytest.raises(MPIError):
        g.world(5)
    with pytest.raises(MPIError):
        Group([1, 1])
    with pytest.raises(MPIError):
        Group([])


def test_sequential_collectives_do_not_cross_talk():
    """Back-to-back collectives with different values must not mix
    messages (tag sequencing)."""
    n = 4
    cluster = make_cluster(n)
    group = Group(list(range(n)))

    def program(ep):
        me = group.rel(ep.rank)
        results = []
        for round_no in range(5):
            r = yield from allreduce(ep, group, me + round_no, SUM)
            results.append(r)
        expected = [sum(range(n)) + n * k for k in range(5)]
        assert results == expected

    run_spmd(cluster, program)
