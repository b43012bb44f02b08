"""Oracle: the busy-polling receive as a chain of one-step computes.

Until the ``Poll`` syscall, ``Endpoint._recv`` in
``recv_mode="polling"`` waited with ``while True: yield Compute(chunk)``
and looked at its mailbox after every step — three events per 100 us
of waiting.  The spin job that replaced it must be indistinguishable
from that chain in everything but event count; this module preserves
the chain **verbatim** so the property suite can run both on the same
scheduler.  Do not "optimise" it.

:func:`loop_recv` is the old ``Endpoint._recv``; ``with
chunk_loop_recv():`` routes every receive through it.
"""

from __future__ import annotations

import contextlib
from typing import Generator

from repro.errors import RankFailedError
from repro.mpi.comm import Endpoint, _PendingRecv
from repro.mpi.status import ANY_SOURCE, Status
from repro.simcluster import Compute, Wait

__all__ = ["loop_recv", "chunk_loop_recv"]


def loop_recv(self: Endpoint, source: int, tag: int) -> Generator:
    comm = self.comm
    san = comm.san
    if source != ANY_SOURCE and source in comm._dead:
        raise RankFailedError(source, "receive from")
    env = comm._try_match(self.rank, source, tag)
    if env is None:
        if comm.net.spec.recv_mode == "polling":
            node = comm.cluster.nodes[self.node_id]
            chunk = node.spec.quantum * 0.01 * node.spec.speed
            if san is not None:
                san.on_block(self.rank, "recv-poll", source, tag)
            while True:
                yield Compute(chunk)
                if source != ANY_SOURCE and source in comm._dead:
                    if san is not None:
                        san.on_unblock(self.rank)
                    raise RankFailedError(source, "receive from")
                env = comm._try_match(self.rank, source, tag)
                if env is not None:
                    break
            if san is not None:
                san.on_unblock(self.rank)
        else:
            sig = comm.sim.signal("recv")
            pr = _PendingRecv(source, tag, sig)
            comm._pending[self.rank].append(pr)
            if san is not None:
                san.on_recv_posted(pr, self.rank, source, tag)
                san.on_block(self.rank, "recv", source, tag)
            env = yield Wait(sig)
            if san is not None:
                san.on_unblock(self.rank)
    if env.poison:
        raise RankFailedError(env.src, "receive from")
    if env.rendezvous:
        comm._pull(env)
        if san is not None:
            san.on_block(self.rank, "recv-data", env.src, env.tag)
        yield Wait(env.data_signal)
        if san is not None:
            san.on_unblock(self.rank)
    yield Compute(comm.net.cpu_cost(env.nbytes))
    return env.payload, Status(env.src, env.tag, env.nbytes)


@contextlib.contextmanager
def chunk_loop_recv():
    """Run every receive through the old chunk loop."""
    spin_recv = Endpoint._recv
    Endpoint._recv = loop_recv
    try:
        yield
    finally:
        Endpoint._recv = spin_recv
