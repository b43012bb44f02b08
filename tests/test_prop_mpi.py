"""Property-based tests for the MPI layer: arbitrary message schedules
must respect MPI's non-overtaking guarantee and deliver every payload
exactly once, regardless of eager/rendezvous mix, timing, and receive
order."""

from collections import defaultdict, deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ClusterSpec, NetworkSpec, NodeSpec
from repro.mpi import Group, run_spmd
from repro.mpi import collectives as coll
from repro.mpi.datatypes import MAX, SUM
from repro.simcluster import Cluster, Sleep


def make_cluster(n, eager):
    return Cluster(ClusterSpec(
        n_nodes=n,
        node=NodeSpec(speed=1e8),
        network=NetworkSpec(latency=1e-5, bandwidth=1e8,
                            eager_threshold=eager),
    ))


@given(
    sizes=st.lists(st.integers(1, 4000), min_size=1, max_size=12),
    tags=st.lists(st.integers(0, 2), min_size=1, max_size=12),
    eager=st.sampled_from([0, 512, 1 << 20]),
    delay=st.floats(0.0, 0.01),
)
@settings(max_examples=40, deadline=None)
def test_per_tag_fifo_and_exactly_once(sizes, tags, eager, delay):
    n_msgs = min(len(sizes), len(tags))
    sizes, tags = sizes[:n_msgs], tags[:n_msgs]
    cluster = make_cluster(2, eager)
    received = defaultdict(list)

    def program(ep):
        if ep.rank == 0:
            # non-blocking sends: a blocking rendezvous send to a
            # receiver that posts tags out of order would deadlock,
            # exactly as in real (unbuffered) MPI
            reqs = []
            for i, (size, tag) in enumerate(zip(sizes, tags)):
                reqs.append((yield from ep.isend(
                    1, tag=tag, payload=np.full(size // 8 + 1, float(i)))))
            for req in reqs:
                yield from req.wait()
        else:
            yield Sleep(delay)
            per_tag = defaultdict(deque)
            for i, tag in enumerate(tags):
                per_tag[tag].append(i)
            # receive per tag, in tag-grouped order
            for tag in sorted(per_tag):
                for _ in range(len(per_tag[tag])):
                    data, st_ = yield from ep.recv(0, tag=tag)
                    received[tag].append(int(data[0]))

    run_spmd(cluster, program)
    # per (src, tag), messages arrive in send order (non-overtaking)
    for tag, seq in received.items():
        expected = [i for i, t in enumerate(tags) if t == tag]
        assert seq == expected
    assert sum(len(v) for v in received.values()) == n_msgs


@given(
    n=st.integers(2, 6),
    values=st.data(),
    op=st.sampled_from([SUM, MAX]),
)
@settings(max_examples=30, deadline=None)
def test_allreduce_agrees_with_local_reduction(n, values, op):
    vals = values.draw(st.lists(
        st.integers(-1000, 1000), min_size=n, max_size=n))
    cluster = make_cluster(n, eager=1 << 20)
    group = Group(list(range(n)))
    results = []

    def program(ep):
        me = group.rel(ep.rank)
        out = yield from coll.allreduce(ep, group, vals[me], op)
        results.append(out)

    run_spmd(cluster, program)
    expected = vals[0]
    for v in vals[1:]:
        expected = op(expected, v)
    assert all(r == expected for r in results)


@given(
    n=st.integers(2, 6),
    root=st.data(),
    payload=st.one_of(
        st.integers(), st.text(max_size=20),
        st.lists(st.floats(allow_nan=False, allow_infinity=False),
                 max_size=5),
    ),
)
@settings(max_examples=30, deadline=None)
def test_bcast_delivers_arbitrary_payloads(n, root, payload):
    root_rel = root.draw(st.integers(0, n - 1))
    cluster = make_cluster(n, eager=1 << 20)
    group = Group(list(range(n)))
    got = []

    def program(ep):
        me = group.rel(ep.rank)
        value = payload if me == root_rel else None
        out = yield from coll.bcast(ep, group, value, root=root_rel)
        got.append(out)

    run_spmd(cluster, program)
    assert all(g == payload for g in got)


@given(perm=st.permutations(list(range(5))))
@settings(max_examples=20, deadline=None)
def test_alltoallv_arbitrary_permutation_routing(perm):
    """Rank i sends one block to rank perm[i] and nothing else: every
    rank receives exactly the block addressed to it, and the fixed
    points of the permutation (no edge) put nothing on the wire."""
    n = 5
    cluster = make_cluster(n, eager=1 << 20)
    group = Group(list(range(n)))
    inv = {dst: src for src, dst in enumerate(perm)}

    def program(ep):
        me = group.rel(ep.rank)
        sends = {perm[me]: ((me, perm[me]), None)} if perm[me] != me else {}
        recv_from = [inv[me]] if inv[me] != me else []
        out = yield from coll.neighbor_alltoallv(ep, group, sends, recv_from)
        assert {src: v for src, (v, _nb) in out.items()} == \
            {src: (src, me) for src in recv_from}

    run_spmd(cluster, program)
    assert cluster.network.n_messages == sum(
        1 for src, dst in enumerate(perm) if src != dst)
