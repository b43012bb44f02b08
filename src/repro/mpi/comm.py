"""Point-to-point message passing over the simulated cluster.

A :class:`SimComm` binds a set of ranks to cluster nodes; each rank's
program talks through its :class:`Endpoint`.  All endpoint operations
that take time are generators meant to be driven with ``yield from``::

    def program(ep):
        if ep.rank == 0:
            yield from ep.send(1, tag=7, payload=np.arange(4.0))
        else:
            data, status = yield from ep.recv(0, tag=7)

Cost model (per message):

* sender CPU: ``cpu_per_msg + nbytes * cpu_per_byte`` work units, charged
  to the caller of ``send`` or ``isend`` as an ordinary :class:`Compute`
  so it competes with the application and with competing processes —
  this is the Section 4.3 effect;
* wire: latency + serialized bandwidth (see
  :class:`~repro.simcluster.network.Network`);
* receiver CPU: same as sender, charged to the caller of ``recv`` (or of
  an ``irecv`` request's first ``wait()``) when the message is consumed.

Messages at or below the eager threshold complete at the sender once
injected; larger messages use a rendezvous (RTS → CTS → data) and the
sender blocks until the data transfer completes, which matches
synchronous-mode large sends in common MPI implementations.
"""

from __future__ import annotations

import itertools
from typing import Any, Generator, Optional

import numpy as np

from ..errors import MPIError, RankFailedError
from ..simcluster import Cluster, Compute, Poll, ProcState, Signal, Wait
from .datatypes import payload_nbytes
from .group import COLL_TAG_BASE
from .status import ANY_SOURCE, ANY_TAG, Status

__all__ = ["SimComm", "Endpoint", "Request"]

#: wire size of RTS/CTS control messages
_CTRL_BYTES = 64


def _obs_tag(tag: int) -> int:
    """Tag value safe to record in a trace.  Tags below the collective
    base are caller-chosen and stable; collective tags embed a
    process-global group id, so they are masked to keep traces of
    identical runs byte-reproducible."""
    return tag if 0 <= tag < COLL_TAG_BASE else -1

#: sentinel fired through signals touching a dead rank (resilience)
_POISON = object()


class _Envelope:
    __slots__ = (
        "src", "dst", "tag", "payload", "nbytes", "seq",
        "rendezvous", "data_signal", "sent_signal", "poison",
    )

    def __init__(self, src: int, dst: int, tag: int, payload: Any,
                 nbytes: int, seq: int = 0, rendezvous: bool = False):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.payload = payload
        self.nbytes = nbytes
        self.seq = seq
        self.rendezvous = rendezvous
        #: armed by SimComm._post for a rendezvous: the receiver waits
        #: on data_signal, the sender on sent_signal
        self.data_signal: Optional[Signal] = None
        self.sent_signal: Optional[Signal] = None
        #: set on synthetic envelopes delivered to receivers blocked on
        #: a rank that died: the receive raises RankFailedError
        self.poison = False

    def matches(self, source: int, tag: int) -> bool:
        return (source in (ANY_SOURCE, self.src)) and (tag in (ANY_TAG, self.tag))


class _PendingRecv:
    __slots__ = ("source", "tag", "signal")

    def __init__(self, source: int, tag: int, signal: Signal):
        self.source = source
        self.tag = tag
        self.signal = signal


class Request:
    """Handle for a non-blocking operation: ``yield from req.wait()``
    returns its value (``(payload, Status)`` for a receive, None for a
    send), or raises RankFailedError if the peer rank died first.  A
    receive's first ``wait()`` pays the receive's CPU charge."""

    def __init__(self, ep: "Endpoint"):
        self._ep = ep
        self._done = False
        self._value: Any = None
        self._signal: Optional[Signal] = None
        self._failed_rank: Optional[int] = None
        self._owed = 0.0  # work units the next wait() charges its caller

    def _complete(self, value: Any) -> None:
        self._done = True
        self._value = value
        if self._signal is not None and not self._signal.fired:
            self._signal.fire(value)

    def _fail(self, rank: int) -> None:
        self._failed_rank = rank
        self._complete(None)

    def test(self) -> bool:
        return self._done

    def wait(self) -> Generator:
        if not self._done:
            if self._signal is None:
                self._signal = self._ep.comm.sim.signal("req")
            yield Wait(self._signal)
        if self._failed_rank is not None:
            raise RankFailedError(self._failed_rank)
        if self._owed:
            work, self._owed = self._owed, 0.0
            yield Compute(work)
        return self._value


class SimComm:
    """A communicator: ``size`` ranks placed on cluster nodes."""

    def __init__(self, cluster: Cluster, rank_to_node: list[int]):
        if not rank_to_node:
            raise MPIError("communicator needs at least one rank")
        for node in rank_to_node:
            if not (0 <= node < cluster.n_nodes):
                raise MPIError(f"rank mapped to invalid node {node}")
        self.cluster = cluster
        self.sim = cluster.sim
        self.net = cluster.network
        self.rank_to_node = list(rank_to_node)
        self.size = len(rank_to_node)
        self._mailboxes: list[list[_Envelope]] = [[] for _ in range(self.size)]
        self._pending: list[list[_PendingRecv]] = [[] for _ in range(self.size)]
        #: per rank, the ``(source, tag, signal)`` of its busy-polling
        #: receive (``recv_mode="polling"``), else None: delivery fires
        #: the signal, which ends the rank's Poll at its next step end
        self._pollers: list[Optional[tuple]] = [None] * self.size
        self._endpoints = [Endpoint(self, r) for r in range(self.size)]
        self._seq = itertools.count()
        #: rank -> its process, once :meth:`watch_rank` watches it
        self.procs: list = [None] * self.size
        #: ranks whose process died (resilience fail-fast poisoning)
        self._dead: set[int] = set()
        #: RMA windows (repro.mpi.rma) registered on this communicator;
        #: rank death must release their lock state too
        self._windows: list = []
        # communication sanitizer (repro.analysis), or None when off
        self.san = getattr(cluster, "sanitizer", None)
        #: this communicator's token with the sanitizer: envelope seqs
        #: restart at 0 per communicator, so it keys on ``(cid, seq)``
        self.cid = self.san.register_comm() if self.san is not None else 0
        # dynscope trace recorder (repro.obs), or None when off
        self.obs = getattr(cluster, "obs", None)
        #: wildcard receives that found queued candidates from ≥2
        #: distinct sources — each one is a matching the MPI standard
        #: leaves undefined (a message race, observed)
        self.match_ties = 0

    def endpoint(self, rank: int) -> "Endpoint":
        if not (0 <= rank < self.size):
            raise MPIError(f"bad rank {rank} (size {self.size})")
        return self._endpoints[rank]

    def node_of(self, rank: int) -> int:
        return self.rank_to_node[rank]

    # ------------------------------------------------------------------
    # dead-endpoint poisoning (repro.resilience fail-fast path)
    # ------------------------------------------------------------------
    def watch_rank(self, rank: int, proc) -> None:
        """Record ``proc`` as ``rank``'s process and mark ``rank`` dead
        the moment it dies, so survivors blocked on it get
        :class:`RankFailedError` instead of a hang.

        :func:`~repro.mpi.launcher.run_spmd` watches every rank it
        starts; a process spawned by hand and never watched keeps the
        undecorated behavior (a killed peer then shows up as a plain
        deadlock).
        """
        self.procs[rank] = proc

        def on_done(_value) -> None:
            if proc.state == ProcState.FAILED:
                self.mark_rank_dead(rank)
        proc.done_signal.add_waiter(on_done)

    def rank_failed(self, rank: int) -> bool:
        return rank in self._dead

    def dead_ranks(self) -> list[int]:
        return sorted(self._dead)

    def mark_rank_dead(self, rank: int) -> None:
        """Poison every operation blocked on — or queued for — ``rank``."""
        if rank in self._dead:
            return
        self._dead.add(rank)
        if self.san is not None:
            self.san.mark_dead(rank)
        # RMA windows: release the dead rank's lock holds and queued
        # lock requests so survivors' epochs can still be granted
        for win in self._windows:
            win._on_rank_dead(rank)
        # the dead rank's own posted receives can never be resumed
        self._pending[rank].clear()
        self._pollers[rank] = None
        # senders parked in a rendezvous with the dead receiver unblock
        # with a poisoned completion
        for env in self._mailboxes[rank]:
            if env.sent_signal is not None and not env.sent_signal.fired:
                env.sent_signal.fire(_POISON)
        self._mailboxes[rank].clear()
        # survivors blocked on an exact-source receive from the dead
        # rank get a poison envelope (ANY_SOURCE stays matchable)
        for dst in range(self.size):
            if dst == rank:
                continue
            keep = []
            for pr in self._pending[dst]:
                if pr.source == rank:
                    poison = _Envelope(rank, dst, pr.tag, None, 0)
                    poison.poison = True
                    pr.signal.fire(poison)
                else:
                    keep.append(pr)
            self._pending[dst][:] = keep
            # a poller on the dead rank stops spinning and finds it dead
            poller = self._pollers[dst]
            if poller is not None and poller[0] == rank:
                self._pollers[dst] = None
                poller[2].fire()

    # ------------------------------------------------------------------
    # the protocol: one post path, one rendezvous pull
    # ------------------------------------------------------------------
    def _post(self, env: _Envelope, on_sent=None) -> None:
        """Put ``env`` on the wire once its sender's CPU charge is paid:
        the payload if eager, else the ready-to-send control message
        (the receiver then pulls the data with :meth:`_pull`).
        ``on_sent(value)`` runs when the send completes — on delivery
        if eager, when ``sent_signal`` fires if rendezvous, with
        ``_POISON`` if the receiver died."""
        src, dst = self.rank_to_node[env.src], self.rank_to_node[env.dst]
        if not env.rendezvous:
            def arrive() -> None:
                self._deliver(env)
                if on_sent is not None:
                    on_sent(None)

            self.net.transmit(src, dst, env.nbytes, arrive)
            return
        env.data_signal = self.sim.signal("rdv-data")
        env.sent_signal = self.sim.signal("rdv-sent")
        if on_sent is not None:
            env.sent_signal.add_waiter(on_sent)
        self.net.transmit(src, dst, _CTRL_BYTES, lambda: self._deliver(env))

    def _pull(self, env: _Envelope, on_data=None) -> None:
        """Receive side of a rendezvous: clear-to-send back to the
        sender, which answers with the bulk data; its arrival fires
        ``data_signal`` and ``sent_signal``, then calls ``on_data()``."""
        src, dst = self.rank_to_node[env.src], self.rank_to_node[env.dst]

        def arrive() -> None:
            env.data_signal.fire(None)
            env.sent_signal.fire(None)
            if on_data is not None:
                on_data()

        self.net.transmit(
            dst, src, _CTRL_BYTES,
            lambda: self.net.transmit(src, dst, env.nbytes, arrive))

    # ------------------------------------------------------------------
    # delivery plumbing (runs inside network callbacks)
    # ------------------------------------------------------------------
    def _deliver(self, env: _Envelope) -> None:
        if env.dst in self._dead:
            # late arrival for a dead receiver: unblock a rendezvous
            # sender with a poisoned completion, drop the message
            if env.sent_signal is not None and not env.sent_signal.fired:
                env.sent_signal.fire(_POISON)
            return
        pending = self._pending[env.dst]
        for i, req in enumerate(pending):
            if env.matches(req.source, req.tag):
                del pending[i]
                if self.san is not None:
                    self.san.on_match(env, self.cid, env.dst, req.source,
                                      req.tag, pending=req)
                req.signal.fire(env)
                return
        self._mailboxes[env.dst].append(env)
        poller = self._pollers[env.dst]
        if poller is not None and env.matches(poller[0], poller[1]):
            self._pollers[env.dst] = None
            poller[2].fire()

    def _try_match(self, rank: int, source: int, tag: int) -> Optional[_Envelope]:
        box = self._mailboxes[rank]
        pick = -1
        for i, env in enumerate(box):
            if env.matches(source, tag):
                pick = i
                break
        if pick < 0:
            return None
        if source == ANY_SOURCE:
            # An ANY_SOURCE receive with queued messages from several
            # sources is a matching MPI leaves undefined: non-overtaking
            # only orders messages *per source pair*, so any source's
            # earliest eligible envelope may win.  Surface the tie (a
            # counter here, a per-rank metric in the trace) and, when
            # the kernel's perturbation is armed, resolve it by seed
            # instead of arrival order — that flip is exactly what turns
            # a message race into a byte-level trace diff.  An exact
            # source (even with ANY_TAG) has a defined winner: the
            # earliest match from that source; nothing to perturb.
            candidates = []
            seen: set[int] = set()
            for i, env in enumerate(box):
                if env.matches(source, tag) and env.src not in seen:
                    seen.add(env.src)
                    candidates.append(i)
            if len(candidates) > 1:
                self.match_ties += 1
                if self.obs is not None:
                    self.obs.rank_registry(rank).count("mpi.match_ties", 1)
                perturb = self.sim.perturb
                if perturb is not None:
                    key = (rank, tag, tuple(box[i].seq for i in candidates))
                    pick = candidates[perturb.choose(len(candidates), key)]
        env = box.pop(pick)
        if self.san is not None:
            self.san.on_match(env, self.cid, rank, source, tag)
        return env


class Endpoint:
    """One rank's view of a :class:`SimComm`.

    The process driving an endpoint must live on the node the rank is
    mapped to; the launcher guarantees this.
    """

    def __init__(self, comm: SimComm, rank: int):
        self.comm = comm
        self.rank = rank
        self.node_id = comm.node_of(rank)

    # ------------------------------------------------------------------
    # blocking point-to-point
    # ------------------------------------------------------------------
    def send(
        self,
        dest: int,
        tag: int = 0,
        payload: Any = None,
        nbytes: Optional[int] = None,
    ) -> Generator:
        """Blocking send.  Eager below the threshold, rendezvous above."""
        nbytes = payload_nbytes(payload) if nbytes is None else int(nbytes)
        obs = self.comm.obs
        if obs is None:
            yield from self._send(dest, tag, payload, nbytes)
            return None
        t0 = obs.now()
        try:
            yield from self._send(dest, tag, payload, nbytes)
        finally:
            obs.complete(
                "mpi.send", t0, cat="mpi", pid=self.node_id, tid=self.rank,
                dst=dest, nbytes=nbytes, tag=_obs_tag(tag),
            )
            obs.rank_registry(self.rank).observe("mpi.send_seconds", obs.now() - t0)
        return None

    def _envelope(self, dest: int, tag: int, payload: Any,
                  nbytes: int) -> _Envelope:
        """A send's envelope: the one place eager vs rendezvous is
        decided."""
        comm = self.comm
        return _Envelope(self.rank, dest, tag, _detach(payload), nbytes,
                         next(comm._seq),
                         nbytes > comm.net.spec.eager_threshold)

    def _start(self, dest: int, tag: int, payload: Any, nbytes: int,
               on_sent=None) -> Generator:
        """Every send's body: charge the caller the send's CPU, then put
        the message on the wire (:meth:`SimComm._post`); returns it."""
        comm = self.comm
        if not (0 <= dest < comm.size):
            raise MPIError(f"send to invalid rank {dest}")
        env = self._envelope(dest, tag, payload, nbytes)
        yield Compute(comm.net.cpu_cost(nbytes))
        if comm.san is not None:
            comm.san.on_send(env, comm.cid)
        comm._post(env, on_sent)
        if comm.obs is not None:
            reg = comm.obs.rank_registry(self.rank)
            reg.count("mpi.messages_sent", 1)
            reg.count("mpi.bytes_sent", nbytes)
        return env

    def _send(self, dest: int, tag: int, payload: Any, nbytes: int) -> Generator:
        comm = self.comm
        if dest in comm._dead:
            raise RankFailedError(dest, "send to")
        env = yield from self._start(dest, tag, payload, nbytes)
        if not env.rendezvous:
            return None
        san = comm.san
        # rendezvous: block until the receiver has matched and the data
        # transfer has completed
        if san is not None:
            san.on_block(self.rank, "send-rdv", dest, tag,
                         env_key=(comm.cid, env.seq))
        result = yield Wait(env.sent_signal)
        if san is not None:
            san.on_unblock(self.rank)
        if result is _POISON:
            raise RankFailedError(dest, "send to")
        return None

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
    ) -> Generator:
        """Blocking receive; returns ``(payload, Status)``.

        In ``recv_mode="polling"`` the receiver busy-waits: it burns
        CPU in poll steps (one :class:`Poll` job on the node's CPU) and
        only notices the message at the end of a step — so on a loaded
        node an arrived message can sit unnoticed for several competing
        quanta, exactly the ch_p4 behavior behind the paper's
        node-removal results.
        """
        obs = self.comm.obs
        if obs is None:
            result = yield from self._recv(source, tag)
            return result
        t0 = obs.now()
        payload, status = yield from self._recv(source, tag)
        obs.complete(
            "mpi.recv", t0, cat="mpi", pid=self.node_id, tid=self.rank,
            src=status.source, nbytes=status.nbytes, tag=_obs_tag(tag),
        )
        reg = obs.rank_registry(self.rank)
        reg.count("mpi.messages_received", 1)
        reg.count("mpi.bytes_received", status.nbytes)
        reg.observe("mpi.recv_seconds", obs.now() - t0)
        return payload, status

    def _recv(self, source: int, tag: int) -> Generator:
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
                # spin until a matching envelope is queued or the
                # source dies, then look at the end of that poll step
                sig = comm.sim.signal("recv-poll")
                comm._pollers[self.rank] = (source, tag, sig)
                yield Poll(chunk, sig)
                if san is not None:
                    san.on_unblock(self.rank)
                if source != ANY_SOURCE and source in comm._dead:
                    raise RankFailedError(source, "receive from")
                env = comm._try_match(self.rank, source, tag)
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

    def sendrecv(
        self,
        dest: int,
        send_tag: int,
        payload: Any,
        source: int,
        recv_tag: int,
        nbytes: Optional[int] = None,
    ) -> Generator:
        """Combined send+recv without deadlock (send first, non-blocking
        semantics through eager/rendezvous machinery)."""
        sreq = yield from self.isend(dest, send_tag, payload, nbytes=nbytes)
        result = yield from self.recv(source, recv_tag)
        yield from sreq.wait()
        return result

    # ------------------------------------------------------------------
    # non-blocking
    # ------------------------------------------------------------------
    def isend(
        self,
        dest: int,
        tag: int = 0,
        payload: Any = None,
        nbytes: Optional[int] = None,
    ) -> Generator:
        """Non-blocking send: ``req = yield from ep.isend(...)``.  Pays
        the send's CPU charge and puts the message on the wire as
        :meth:`send` does, without waiting for a rendezvous; the request
        completes with the send."""
        comm = self.comm
        req = Request(self)
        if dest in comm._dead:
            req._fail(dest)
            return req
        nbytes = payload_nbytes(payload) if nbytes is None else int(nbytes)

        def on_sent(value) -> None:
            if value is _POISON:
                req._fail(dest)
            else:
                req._complete(None)

        yield from self._start(dest, tag, payload, nbytes, on_sent)
        return req

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive; ``wait()`` returns ``(payload, Status)``
        and pays the receive's CPU charge."""
        comm = self.comm
        req = Request(self)
        if source != ANY_SOURCE and source in comm._dead:
            req._fail(source)
            return req
        env = comm._try_match(self.rank, source, tag)

        def finish(env: _Envelope) -> None:
            if env.poison:
                req._fail(env.src)
                return

            def done() -> None:
                req._owed = comm.net.cpu_cost(env.nbytes)
                req._complete((env.payload, Status(env.src, env.tag, env.nbytes)))

            if env.rendezvous:
                comm._pull(env, done)
            else:
                done()

        if env is not None:
            finish(env)
        else:
            sig = comm.sim.signal("irecv")
            pr = _PendingRecv(source, tag, sig)
            comm._pending[self.rank].append(pr)
            if comm.san is not None:
                comm.san.on_recv_posted(pr, self.rank, source, tag)
            sig.add_waiter(finish)
        return req

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Status]:
        """Non-blocking probe: Status of the first matching queued
        message, or None.  Costs nothing (a poll)."""
        for env in self.comm._mailboxes[self.rank]:
            if env.matches(source, tag):
                return Status(env.src, env.tag, env.nbytes)
        return None

    # convenience -----------------------------------------------------------
    @property
    def size(self) -> int:
        return self.comm.size

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Endpoint rank={self.rank}/{self.size} node={self.node_id}>"


def _detach(payload: Any) -> Any:
    """Copy mutable numpy buffers so post-send mutation by the sender
    cannot corrupt in-flight messages (MPI buffer semantics)."""
    if isinstance(payload, np.ndarray):
        return payload.copy()
    return payload
