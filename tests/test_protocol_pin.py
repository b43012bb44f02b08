"""Exact pins of the point-to-point and RMA message protocol.

Every combination of send/isend, recv/irecv, eager/rendezvous,
blocking/polling receive and a competing process on the receiver's
node (or none) runs one small two-rank exchange; one contended RMA cell
has four ranks take an exclusive lock on one target, ``fetch_and_op``
and unlock.  Each cell must reproduce exactly the simulated end time,
the event count, the wire message count and every rank's CPU time
(clock nanoseconds) — with the sanitizer off and on.  A refactor of
``repro.mpi`` that changes none of the model keeps every pin; anything
else moves one.
"""

import itertools

import numpy as np
import pytest

from repro.config import ClusterSpec, NetworkSpec
from repro.mpi import Window, make_comm, run_spmd
from repro.simcluster import Cluster, Compute

#: payload sizes on either side of the default 16 KiB eager threshold
_NBYTES = {"eager": 1024, "rendezvous": 64 * 1024}


def _cluster(n_nodes, mode, sanitize):
    return Cluster(ClusterSpec(
        n_nodes=n_nodes, network=NetworkSpec(recv_mode=mode),
        sanitize=sanitize, seed=0))


def _digest(cluster, n_ranks):
    sim = cluster.sim
    cpu = {p.name: p.cpu_time for p in sim.processes}
    return (sim.now, sim.n_events, cluster.network.n_messages,
            tuple(cpu[f"rank{r}"] for r in range(n_ranks)))


def _p2p_cell(send, recv, size, mode, load, sanitize):
    """Three messages 0 -> 1; the receiver computes first, so early
    messages queue and later ones find it waiting."""
    cluster = _cluster(2, mode, sanitize)
    if load == "loaded":
        cluster.nodes[1].start_competing()
    nbytes = _NBYTES[size]

    def program(ep):
        if ep.rank == 0:
            reqs = []
            for i in range(3):
                payload = np.full(nbytes // 8, float(i))
                if send == "send":
                    yield from ep.send(1, tag=i, payload=payload,
                                       nbytes=nbytes)
                else:
                    reqs.append((yield from ep.isend(1, tag=i, payload=payload,
                                                     nbytes=nbytes)))
                yield Compute((1.5e6, 6e6, 1e5)[i])
            for req in reqs:
                yield from req.wait()
        else:
            yield Compute(2.5e6)
            got = []
            if recv == "recv":
                for i in range(3):
                    data, status = yield from ep.recv(0, tag=i)
                    got.append((data[0], status.nbytes))
            else:
                reqs = [ep.irecv(0, tag=i) for i in range(3)]
                yield Compute(1e5)
                for req in reqs:
                    data, status = yield from req.wait()
                    got.append((data[0], status.nbytes))
            assert got == [(float(i), nbytes) for i in range(3)]

    run_spmd(cluster, program)
    return _digest(cluster, 2)


def _rma_cell(sanitize):
    """Four ranks contend for an exclusive lock on rank 0."""
    cluster = _cluster(4, "blocking", sanitize)
    comm = make_comm(cluster)
    win = Window(comm, 4, name="pin")
    procs = []
    for rank in range(comm.size):
        h = win.origin(rank)

        def program(h=h, rank=rank):
            for _ in range(3):
                yield Compute(1e4 * (rank + 1))
                yield from h.lock(0)
                yield from h.fetch_and_op(0, 0, 1)
                yield from h.unlock(0)

        procs.append(cluster.sim.spawn(
            program(), name=f"rank{rank}",
            node=cluster.nodes[comm.node_of(rank)]))
    cluster.sim.run_all(procs)
    if cluster.sanitizer is not None:
        cluster.sanitizer.finalize()
    assert int(win.local(0)[0]) == 12
    return _digest(cluster, 4)


P2P_CELLS = list(itertools.product(
    ("send", "isend"), ("recv", "irecv"), ("eager", "rendezvous"),
    ("blocking", "polling"), ("idle", "loaded")))

#: (end time, events, wire messages, per-rank CPU time), times in clock
#: ns; re-captured when the clock became integer nanoseconds (every
#: cell equal to its old float pin rounded to ns: none moved)
P2P_PIN = {
    ('send', 'recv', 'eager', 'blocking', 'idle'):
        (76102288, 28, 3, (76102288, 25102288)),
    ('send', 'recv', 'eager', 'blocking', 'loaded'):
        (76102288, 38, 3, (76102288, 25102288)),
    ('send', 'recv', 'eager', 'polling', 'idle'):
        (76102288, 30, 3, (76102288, 75302288)),
    ('send', 'recv', 'eager', 'polling', 'loaded'):
        (80323409, 43, 3, (76102288, 40102288)),
    ('send', 'recv', 'rendezvous', 'blocking', 'idle'):
        (117938528, 41, 9, (76876432, 25876432)),
    ('send', 'recv', 'rendezvous', 'blocking', 'loaded'):
        (137919208, 56, 9, (76876432, 25876432)),
    ('send', 'recv', 'rendezvous', 'polling', 'idle'):
        (117978288, 45, 9, (76876432, 101076432)),
    ('send', 'recv', 'rendezvous', 'polling', 'loaded'):
        (143096184, 63, 9, (76876432, 65476432)),
    ('send', 'irecv', 'eager', 'blocking', 'idle'):
        (76102288, 31, 3, (76102288, 26102288)),
    ('send', 'irecv', 'eager', 'blocking', 'loaded'):
        (76102288, 42, 3, (76102288, 26102288)),
    ('send', 'irecv', 'eager', 'polling', 'idle'):
        (76102288, 31, 3, (76102288, 26102288)),
    ('send', 'irecv', 'eager', 'polling', 'loaded'):
        (76102288, 42, 3, (76102288, 26102288)),
    ('send', 'irecv', 'rendezvous', 'blocking', 'idle'):
        (117938528, 43, 9, (76876432, 26876432)),
    ('send', 'irecv', 'rendezvous', 'blocking', 'loaded'):
        (137919208, 59, 9, (76876432, 26876432)),
    ('send', 'irecv', 'rendezvous', 'polling', 'idle'):
        (117938528, 43, 9, (76876432, 26876432)),
    ('send', 'irecv', 'rendezvous', 'polling', 'loaded'):
        (137919208, 59, 9, (76876432, 26876432)),
    ('isend', 'recv', 'eager', 'blocking', 'idle'):
        (76102288, 28, 3, (76102288, 25102288)),
    ('isend', 'recv', 'eager', 'blocking', 'loaded'):
        (76102288, 38, 3, (76102288, 25102288)),
    ('isend', 'recv', 'eager', 'polling', 'idle'):
        (76102288, 30, 3, (76102288, 75302288)),
    ('isend', 'recv', 'eager', 'polling', 'loaded'):
        (80323409, 43, 3, (76102288, 40102288)),
    ('isend', 'recv', 'rendezvous', 'blocking', 'idle'):
        (81646696, 41, 9, (76876432, 25876432)),
    ('isend', 'recv', 'rendezvous', 'blocking', 'loaded'):
        (81646696, 51, 9, (76876432, 25876432)),
    ('isend', 'recv', 'rendezvous', 'polling', 'idle'):
        (81670432, 43, 9, (76876432, 65476432)),
    ('isend', 'recv', 'rendezvous', 'polling', 'loaded'):
        (81710306, 54, 9, (76876432, 35776432)),
    ('isend', 'irecv', 'eager', 'blocking', 'idle'):
        (76102288, 31, 3, (76102288, 26102288)),
    ('isend', 'irecv', 'eager', 'blocking', 'loaded'):
        (76102288, 42, 3, (76102288, 26102288)),
    ('isend', 'irecv', 'eager', 'polling', 'idle'):
        (76102288, 31, 3, (76102288, 26102288)),
    ('isend', 'irecv', 'eager', 'polling', 'loaded'):
        (76102288, 42, 3, (76102288, 26102288)),
    ('isend', 'irecv', 'rendezvous', 'blocking', 'idle'):
        (81646696, 43, 9, (76876432, 26876432)),
    ('isend', 'irecv', 'rendezvous', 'blocking', 'loaded'):
        (81646696, 54, 9, (76876432, 26876432)),
    ('isend', 'irecv', 'rendezvous', 'polling', 'idle'):
        (81646696, 43, 9, (76876432, 26876432)),
    ('isend', 'irecv', 'rendezvous', 'polling', 'loaded'):
        (81646696, 54, 9, (76876432, 26876432)),
}

RMA_PIN = (4554544, 284, 72, (842496, 1142496, 1442496, 1742496))


@pytest.mark.parametrize("sanitize", [False, True], ids=["plain", "san"])
@pytest.mark.parametrize("cell", P2P_CELLS, ids="-".join)
def test_p2p_model_pin(cell, sanitize):
    assert _p2p_cell(*cell, sanitize) == P2P_PIN[cell]


@pytest.mark.parametrize("sanitize", [False, True], ids=["plain", "san"])
def test_rma_model_pin(sanitize):
    assert _rma_cell(sanitize) == RMA_PIN
