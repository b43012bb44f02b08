"""Exact pins of the point-to-point and RMA message protocol.

Every combination of send/isend, recv/irecv, eager/rendezvous,
blocking/polling receive and a competing process on the receiver's
node (or none) runs one small two-rank exchange; one contended RMA cell
has four ranks take an exclusive lock on one target, ``fetch_and_op``
and unlock.  Each cell must reproduce, bit for bit, the simulated end
time, the event count, the wire message count and every rank's CPU
time — with the sanitizer off and on.  A refactor of ``repro.mpi``
that changes none of the model keeps every pin; anything else moves
one.
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
    cpu = {p.name: p.cpu_time.hex() for p in sim.processes}
    return (sim.now.hex(), sim.n_events, cluster.network.n_messages,
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

#: values captured before the p2p/RMA protocol refactor; the isend and
#: irecv cells re-captured when both began charging the calling rank
#: (send/recv cells and the RMA cell unchanged)
P2P_PIN = {
    ('send', 'recv', 'eager', 'blocking', 'idle'):
        ('0x1.37b70861c5ba3p-4', 28, 3,
         ('0x1.37b70861c5ba3p-4', '0x1.9b46a080f20b8p-6')),
    ('send', 'recv', 'eager', 'blocking', 'loaded'):
        ('0x1.37b70861c5ba3p-4', 38, 3,
         ('0x1.37b70861c5ba3p-4', '0x1.9b46a080f20b6p-6')),
    ('send', 'recv', 'eager', 'polling', 'idle'):
        ('0x1.37b70861c5ba3p-4', 30, 3,
         ('0x1.37b70861c5ba3p-4', '0x1.34702c046231dp-4')),
    ('send', 'recv', 'eager', 'polling', 'loaded'):
        ('0x1.490132d5225b4p-4', 43, 3,
         ('0x1.37b70861c5ba3p-4', '0x1.488497ee8d809p-5')),
    ('send', 'recv', 'rendezvous', 'blocking', 'idle'):
        ('0x1.e313828b2c90dp-4', 41, 9,
         ('0x1.3ae2c8145ee54p-4', '0x1.a7f59f4b56b7ep-6')),
    ('send', 'recv', 'rendezvous', 'blocking', 'loaded'):
        ('0x1.1a7562b9c4c42p-3', 56, 9,
         ('0x1.3ae2c8145ee53p-4', '0x1.a7f59f4b56b7cp-6')),
    ('send', 'recv', 'rendezvous', 'polling', 'idle'):
        ('0x1.e33d338991b12p-4', 45, 9,
         ('0x1.3ae2c8145ee53p-4', '0x1.9e02521d61c34p-4')),
    ('send', 'recv', 'rendezvous', 'polling', 'loaded'):
        ('0x1.250f9cafa591ep-3', 63, 9,
         ('0x1.3ae2c8145ee54p-4', '0x1.0c3103e1948dap-4')),
    ('send', 'irecv', 'eager', 'blocking', 'idle'):
        ('0x1.37b70861c5ba3p-4', 31, 3,
         ('0x1.37b70861c5ba3p-4', '0x1.aba8ee53e3b58p-6')),
    ('send', 'irecv', 'eager', 'blocking', 'loaded'):
        ('0x1.37b70861c5ba3p-4', 42, 3,
         ('0x1.37b70861c5ba3p-4', '0x1.aba8ee53e3b56p-6')),
    ('send', 'irecv', 'eager', 'polling', 'idle'):
        ('0x1.37b70861c5ba3p-4', 31, 3,
         ('0x1.37b70861c5ba3p-4', '0x1.aba8ee53e3b58p-6')),
    ('send', 'irecv', 'eager', 'polling', 'loaded'):
        ('0x1.37b70861c5ba3p-4', 42, 3,
         ('0x1.37b70861c5ba3p-4', '0x1.aba8ee53e3b56p-6')),
    ('send', 'irecv', 'rendezvous', 'blocking', 'idle'):
        ('0x1.e313828b2c90dp-4', 43, 9,
         ('0x1.3ae2c8145ee54p-4', '0x1.b857ed1e4861ep-6')),
    ('send', 'irecv', 'rendezvous', 'blocking', 'loaded'):
        ('0x1.1a7562b9c4c42p-3', 59, 9,
         ('0x1.3ae2c8145ee53p-4', '0x1.b857ed1e4861cp-6')),
    ('send', 'irecv', 'rendezvous', 'polling', 'idle'):
        ('0x1.e313828b2c90dp-4', 43, 9,
         ('0x1.3ae2c8145ee54p-4', '0x1.b857ed1e4861ep-6')),
    ('send', 'irecv', 'rendezvous', 'polling', 'loaded'):
        ('0x1.1a7562b9c4c42p-3', 59, 9,
         ('0x1.3ae2c8145ee53p-4', '0x1.b857ed1e4861cp-6')),
    ('isend', 'recv', 'eager', 'blocking', 'idle'):
        ('0x1.37b70861c5ba3p-4', 28, 3,
         ('0x1.37b70861c5ba3p-4', '0x1.9b46a080f20b8p-6')),
    ('isend', 'recv', 'eager', 'blocking', 'loaded'):
        ('0x1.37b70861c5ba3p-4', 38, 3,
         ('0x1.37b70861c5ba3p-4', '0x1.9b46a080f20b6p-6')),
    ('isend', 'recv', 'eager', 'polling', 'idle'):
        ('0x1.37b70861c5ba3p-4', 30, 3,
         ('0x1.37b70861c5ba3p-4', '0x1.34702c046231dp-4')),
    ('isend', 'recv', 'eager', 'polling', 'loaded'):
        ('0x1.490132d5225b4p-4', 43, 3,
         ('0x1.37b70861c5ba3p-4', '0x1.488497ee8d809p-5')),
    ('isend', 'recv', 'rendezvous', 'blocking', 'idle'):
        ('0x1.4e6cc41257e03p-4', 41, 9,
         ('0x1.3ae2c8145ee54p-4', '0x1.a7f59f4b56b7ep-6')),
    ('isend', 'recv', 'rendezvous', 'blocking', 'loaded'):
        ('0x1.4e6cc41257e03p-4', 51, 9,
         ('0x1.3ae2c8145ee54p-4', '0x1.a7f59f4b56b7ep-6')),
    ('isend', 'recv', 'rendezvous', 'polling', 'idle'):
        ('0x1.4e85a7a7d7d38p-4', 43, 9,
         ('0x1.3ae2c8145ee54p-4', '0x1.0c3103e1948dap-4')),
    ('isend', 'recv', 'rendezvous', 'polling', 'loaded'):
        ('0x1.4eaf7755948aap-4', 54, 9,
         ('0x1.3ae2c8145ee54p-4', '0x1.25149dad0acbcp-5')),
    ('isend', 'irecv', 'eager', 'blocking', 'idle'):
        ('0x1.37b70861c5ba3p-4', 31, 3,
         ('0x1.37b70861c5ba3p-4', '0x1.aba8ee53e3b58p-6')),
    ('isend', 'irecv', 'eager', 'blocking', 'loaded'):
        ('0x1.37b70861c5ba3p-4', 42, 3,
         ('0x1.37b70861c5ba3p-4', '0x1.aba8ee53e3b56p-6')),
    ('isend', 'irecv', 'eager', 'polling', 'idle'):
        ('0x1.37b70861c5ba3p-4', 31, 3,
         ('0x1.37b70861c5ba3p-4', '0x1.aba8ee53e3b58p-6')),
    ('isend', 'irecv', 'eager', 'polling', 'loaded'):
        ('0x1.37b70861c5ba3p-4', 42, 3,
         ('0x1.37b70861c5ba3p-4', '0x1.aba8ee53e3b56p-6')),
    ('isend', 'irecv', 'rendezvous', 'blocking', 'idle'):
        ('0x1.4e6cc41257e03p-4', 43, 9,
         ('0x1.3ae2c8145ee54p-4', '0x1.b857ed1e4861ep-6')),
    ('isend', 'irecv', 'rendezvous', 'blocking', 'loaded'):
        ('0x1.4e6cc41257e03p-4', 54, 9,
         ('0x1.3ae2c8145ee54p-4', '0x1.b857ed1e4861ep-6')),
    ('isend', 'irecv', 'rendezvous', 'polling', 'idle'):
        ('0x1.4e6cc41257e03p-4', 43, 9,
         ('0x1.3ae2c8145ee54p-4', '0x1.b857ed1e4861ep-6')),
    ('isend', 'irecv', 'rendezvous', 'polling', 'loaded'):
        ('0x1.4e6cc41257e03p-4', 54, 9,
         ('0x1.3ae2c8145ee54p-4', '0x1.b857ed1e4861ep-6')),
}

RMA_PIN = ('0x1.2a7c918737a8bp-8', 284, 72, (
    '0x1.b9b5e622d690cp-11',
    '0x1.2b7f9bd2c011fp-10',
    '0x1.7a24449414db5p-10',
    '0x1.c8c8ed5569a54p-10',
))


@pytest.mark.parametrize("sanitize", [False, True], ids=["plain", "san"])
@pytest.mark.parametrize("cell", P2P_CELLS, ids="-".join)
def test_p2p_model_pin(cell, sanitize):
    assert _p2p_cell(*cell, sanitize) == P2P_PIN[cell]


@pytest.mark.parametrize("sanitize", [False, True], ids=["plain", "san"])
def test_rma_model_pin(sanitize):
    assert _rma_cell(sanitize) == RMA_PIN
