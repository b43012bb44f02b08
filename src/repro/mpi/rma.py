"""One-sided passive-target RMA over the simulated network.

A :class:`Window` exposes ``n_slots`` int64 words of every rank's
memory to every other rank.  Origins operate on a target's memory
without the target's process participating — the memory effect is
applied by the target node's NIC agent (a network delivery callback),
which is the whole point of passive-target RMA for task farms: the
master's loop counter can be advanced by 63 workers while the master's
*process* spends zero CPU on dispatch (Dynamic Loop Scheduling Using
MPI Passive-Target Remote Memory Access, PAPERS.md).

Cost model (per op):

* origin CPU: ``cpu_cost(request) + cpu_cost(response)`` work units,
  charged as ordinary :class:`Compute` on the origin's node;
* wire: request and response each ride :meth:`Network.transmit`, so
  they serialize through the per-NIC model like every other message;
* target CPU: **zero** — the NIC agent applies the effect in the
  delivery callback.  This asymmetry is what the farm benchmarks
  measure.

Epochs follow ``MPI_Win_lock``/``MPI_Win_unlock`` passive target:
``lock(target)`` opens an access epoch (exclusive by default,
``shared=True`` for concurrent readers/atomics), ``unlock(target)``
closes it.  Grants are FIFO at the target with shared-batch coalescing.
Every op must run inside an epoch on its target; the dynsan runtime
extension enforces this (DYN1111/DYN1112/DYN1113 — see
:mod:`repro.analysis.sanitizer`).

Atomicity of ``accumulate``/``fetch_and_op``/``compare_and_swap`` is
per-op and free: each request's memory effect happens inside a single
delivery callback, and the event kernel runs callbacks one at a time.
"""

from __future__ import annotations

import itertools
from typing import Generator

import numpy as np

from ..errors import MPIError, RankFailedError
from ..simcluster import Compute, Wait

__all__ = ["Window", "RmaHandle", "RMA_CTRL_BYTES"]

#: wire size of an RMA packet header (lock/unlock control messages and
#: the fixed part of every request/response)
RMA_CTRL_BYTES = 32

_WID = itertools.count()

#: bytes per window slot (int64 words)
_SLOT_BYTES = 8


class _LockState:
    """Lock bookkeeping for one target rank of one window.

    Lives at the *target*: transitions run inside delivery callbacks,
    i.e. at the simulated time the control message reaches the target's
    NIC.  ``holders`` maps origin rank -> "sh"/"ex"; ``queue`` is FIFO
    of ``(origin, shared, reply)`` (see :meth:`RmaHandle._round_trip`).
    """

    __slots__ = ("holders", "queue")

    def __init__(self) -> None:
        self.holders: dict[int, str] = {}
        self.queue: list[tuple[int, bool, object]] = []

    def _grantable(self, shared: bool) -> bool:
        if not self.holders:
            return True
        if shared:
            return all(m == "sh" for m in self.holders.values())
        return False

    def request(self, origin: int, shared: bool, reply) -> None:
        if not self.queue and self._grantable(shared):
            self.holders[origin] = "sh" if shared else "ex"
            reply()
        else:
            self.queue.append((origin, shared, reply))

    def release(self, origin: int) -> list:
        """Drop ``origin``'s hold; return the replies now granted."""
        self.holders.pop(origin, None)
        return self._drain()

    def drop(self, origin: int) -> list:
        """Rank death: forget holds *and* queued requests from ``origin``."""
        self.holders.pop(origin, None)
        self.queue = [q for q in self.queue if q[0] != origin]
        return self._drain()

    def _drain(self) -> list:
        grants = []
        while self.queue:
            origin, shared, reply = self.queue[0]
            if not self._grantable(shared):
                break
            self.queue.pop(0)
            self.holders[origin] = "sh" if shared else "ex"
            grants.append(reply)
            if not shared:
                break
        return grants


class Window:
    """``n_slots`` int64 words of remotely-accessible memory per rank.

    Construct once per communicator (all ranks share the object — this
    is a simulation; the per-rank views come from :meth:`origin`).
    Construction outside ``repro.farm``/``repro.mpi.rma`` is flagged by
    lint rule DYN1101 — task-farm code should go through the farm
    runtime, which owns the one sanctioned window.
    """

    def __init__(self, comm, n_slots: int, *, fill: int = 0, name: str = "win"):
        if n_slots <= 0:
            raise MPIError(f"window needs at least one slot (got {n_slots})")
        self.comm = comm
        self.net = comm.net
        self.sim = comm.sim
        self.n_slots = int(n_slots)
        self.name = name
        self.wid = next(_WID)
        self.buffers = [
            np.full(self.n_slots, fill, dtype=np.int64)
            for _ in range(comm.size)
        ]
        self._locks = [_LockState() for _ in range(comm.size)]
        self._handles = [RmaHandle(self, r) for r in range(comm.size)]
        comm._windows.append(self)

    def origin(self, rank: int) -> "RmaHandle":
        """The handle rank ``rank`` drives its one-sided ops through."""
        if not (0 <= rank < self.comm.size):
            raise MPIError(f"bad rank {rank} (size {self.comm.size})")
        return self._handles[rank]

    def local(self, rank: int) -> np.ndarray:
        """Rank ``rank``'s own slots, as directly-addressable memory.

        Local loads/stores by the window's owner cost nothing and need
        no epoch (the simulation analogue of MPI_Win_allocate memory
        the owner also uses directly).
        """
        return self.buffers[rank]

    # ------------------------------------------------------------------
    # resilience (called from SimComm.mark_rank_dead)
    # ------------------------------------------------------------------
    def _on_rank_dead(self, rank: int) -> None:
        """Fail the lock requests queued at the dead rank, then release
        its holds and queued requests on every other target and hand
        each lock to the next FIFO waiter."""
        dead = self._locks[rank]
        for _, _, reply in dead.queue:
            reply(ok=False)
        dead.queue = []
        for state in self._locks:
            for grant in state.drop(rank):
                grant()

    def _check_slot(self, slot: int, count: int = 1) -> None:
        if not (0 <= slot and slot + count <= self.n_slots):
            raise MPIError(
                f"window '{self.name}' access [{slot}, {slot + count}) "
                f"outside [0, {self.n_slots})"
            )


class RmaHandle:
    """One origin rank's view of a :class:`Window`.

    All operations are generators driven with ``yield from``; each is
    one request/response round trip that blocks the origin until the
    target's NIC answers, or raises RankFailedError if the target dies
    first.  The target's process never runs.
    """

    def __init__(self, win: Window, rank: int):
        self.win = win
        self.rank = rank
        self.node_id = win.comm.node_of(rank)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _round_trip(self, target: int, req_bytes: int, resp_bytes: int,
                    at_target, what: str = "RMA op on") -> Generator:
        """Request to ``target``'s NIC, run ``at_target(reply)`` there;
        ``reply(value)`` rides the response back and ``value`` is
        returned, ``reply(ok=False)`` (the target died) raises
        RankFailedError.  The origin is charged CPU for both packets,
        the target for neither."""
        win = self.win
        comm = win.comm
        if target in comm._dead:
            raise RankFailedError(target, what)
        yield Compute(win.net.cpu_cost(req_bytes))
        sig = comm.sim.signal("rma")
        t_node = comm.node_of(target)

        def reply(value=None, ok: bool = True) -> None:
            if ok:
                win.net.transmit(t_node, self.node_id, resp_bytes,
                                 lambda: sig.fire((True, value)))
            else:
                sig.fire((False, None))

        def on_request() -> None:
            if self.rank in comm._dead:
                return  # the origin died in flight: grant and apply nothing
            if target in comm._dead:
                reply(ok=False)
            else:
                at_target(reply)

        win.net.transmit(self.node_id, t_node, req_bytes, on_request)
        ok, value = yield Wait(sig)
        if not ok:
            raise RankFailedError(target, what)
        yield Compute(win.net.cpu_cost(resp_bytes))
        return value

    def _op(self, name: str, target: int, req_bytes: int, resp_bytes: int,
            at_target) -> Generator:
        win = self.win
        comm = win.comm
        # before the sanitizer: a bad rank is a usage error, not an
        # access outside an epoch (nobody can hold a lock on it)
        if not (0 <= target < comm.size):
            raise MPIError(f"RMA op on invalid rank {target}")
        if comm.san is not None:
            comm.san.on_rma_op(self.rank, win.wid, win.name, target, name)
        obs = comm.obs
        t0 = obs.now() if obs is not None else 0.0
        value = yield from self._round_trip(
            target, req_bytes, resp_bytes,
            lambda reply: reply(at_target()))
        if obs is None:
            return value
        obs.complete(
            f"rma.{name}", t0, cat="rma", pid=self.node_id, tid=self.rank,
            target=target, nbytes=req_bytes + resp_bytes,
        )
        reg = obs.rank_registry(self.rank)
        reg.count("rma.ops", 1)
        reg.count("rma.bytes", req_bytes + resp_bytes)
        return value

    # ------------------------------------------------------------------
    # epochs
    # ------------------------------------------------------------------
    def lock(self, target: int, *, shared: bool = False) -> Generator:
        """Open a passive-target access epoch on ``target``.  Exclusive
        by default; ``shared=True`` epochs coexist with each other.
        Blocks until the target's NIC grants the lock (FIFO)."""
        win = self.win
        comm = win.comm
        if not (0 <= target < comm.size):
            raise MPIError(f"RMA lock on invalid rank {target}")
        if target in comm._dead:
            raise RankFailedError(target, "RMA lock on")
        if comm.san is not None:
            comm.san.on_rma_lock_request(
                self.rank, win.wid, win.name, target, shared)
        obs = comm.obs
        t0 = obs.now() if obs is not None else 0.0
        yield from self._round_trip(
            target, RMA_CTRL_BYTES, RMA_CTRL_BYTES,
            lambda reply: win._locks[target].request(self.rank, shared, reply),
            "RMA lock on")
        if comm.san is not None:
            comm.san.on_rma_lock_granted(self.rank, win.wid, win.name, target)
        if obs is not None:
            obs.complete(
                "rma.lock", t0, cat="rma", pid=self.node_id, tid=self.rank,
                target=target, shared=shared,
            )
            obs.rank_registry(self.rank).observe(
                "rma.lock_wait_seconds", obs.now() - t0)
        return None

    def unlock(self, target: int) -> Generator:
        """Close the epoch on ``target``.  All of this origin's ops on
        the target already completed (each op blocks), so unlock is a
        control round trip that releases the lock at the target.  A
        target that died mid-epoch took its lock state with it: then
        unlock just returns."""
        win = self.win
        comm = win.comm
        if comm.san is not None:
            comm.san.on_rma_unlock(self.rank, win.wid, win.name, target)

        def release(reply) -> None:
            for grant in win._locks[target].release(self.rank):
                grant()
            reply()

        try:
            yield from self._round_trip(
                target, RMA_CTRL_BYTES, RMA_CTRL_BYTES, release)
        except RankFailedError:
            return None
        if comm.obs is not None:
            comm.obs.instant(
                "rma.unlock", cat="rma", pid=self.node_id, tid=self.rank,
                target=target,
            )
        return None

    # ------------------------------------------------------------------
    # one-sided operations
    # ------------------------------------------------------------------
    def put(self, target: int, slot: int, values) -> Generator:
        """Store ``values`` (int or int64 array) at ``target``'s slots
        ``[slot, slot+len)``."""
        win = self.win
        arr = np.atleast_1d(np.asarray(values, dtype=np.int64))
        win._check_slot(slot, arr.size)
        data = arr.copy()

        def at_target() -> None:
            win.buffers[target][slot:slot + data.size] = data

        yield from self._op(
            "put", target,
            RMA_CTRL_BYTES + data.size * _SLOT_BYTES, RMA_CTRL_BYTES,
            at_target,
        )
        return None

    def get(self, target: int, slot: int, count: int = 1) -> Generator:
        """Fetch ``count`` slots from ``target``; returns an int64
        array (or the scalar when ``count == 1``)."""
        win = self.win
        win._check_slot(slot, count)

        def at_target() -> np.ndarray:
            return win.buffers[target][slot:slot + count].copy()

        arr = yield from self._op(
            "get", target,
            RMA_CTRL_BYTES, RMA_CTRL_BYTES + count * _SLOT_BYTES,
            at_target,
        )
        return int(arr[0]) if count == 1 else arr

    def accumulate(self, target: int, slot: int, values) -> Generator:
        """Element-wise atomic ``target[slot:] += values``."""
        win = self.win
        arr = np.atleast_1d(np.asarray(values, dtype=np.int64))
        win._check_slot(slot, arr.size)
        data = arr.copy()

        def at_target() -> None:
            win.buffers[target][slot:slot + data.size] += data

        yield from self._op(
            "accumulate", target,
            RMA_CTRL_BYTES + data.size * _SLOT_BYTES, RMA_CTRL_BYTES,
            at_target,
        )
        return None

    def fetch_and_op(self, target: int, slot: int, value: int) -> Generator:
        """Atomic fetch-and-add on one slot; returns the *old* value.
        The farm's decentralized self-scheduling lives on this op."""
        win = self.win
        win._check_slot(slot)
        value = int(value)

        def at_target() -> int:
            old = int(win.buffers[target][slot])
            win.buffers[target][slot] = old + value
            return old

        old = yield from self._op(
            "fetch_and_op", target,
            RMA_CTRL_BYTES + _SLOT_BYTES, RMA_CTRL_BYTES + _SLOT_BYTES,
            at_target,
        )
        return old

    def compare_and_swap(self, target: int, slot: int, expect: int,
                         desired: int) -> Generator:
        """Atomic compare-and-swap on one slot; returns the old value
        (the swap happened iff it equals ``expect``)."""
        win = self.win
        win._check_slot(slot)
        expect, desired = int(expect), int(desired)

        def at_target() -> int:
            old = int(win.buffers[target][slot])
            if old == expect:
                win.buffers[target][slot] = desired
            return old

        old = yield from self._op(
            "compare_and_swap", target,
            RMA_CTRL_BYTES + 2 * _SLOT_BYTES, RMA_CTRL_BYTES + _SLOT_BYTES,
            at_target,
        )
        return old

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<RmaHandle rank={self.rank} win='{self.win.name}' "
                f"slots={self.win.n_slots}>")
