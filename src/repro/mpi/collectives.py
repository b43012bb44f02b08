"""Collective operations over a rank :class:`~repro.mpi.group.Group`.

All collectives are generator functions driven with ``yield from`` and
must be called by *every* member of the group, in the same order
(SPMD).  Algorithms are the textbook ones used by real MPI libraries:

* ``barrier`` — dissemination;
* ``bcast`` / ``reduce`` — binomial trees;
* ``allreduce`` — reduce-to-0 + bcast (correct for non-powers-of-two);
* ``gather(v)`` / ``scatter(v)`` — linear with the root;
* ``allgather(v)`` — ring;
* ``neighbor_alltoallv`` — sparse exchange over a caller-supplied
  edge set, in pairwise-exchange order.

Message costs (CPU + wire) fall out of the point-to-point layer, so a
collective's simulated cost scales the way a real implementation's
does (e.g. bcast is O(log n) rounds).
"""

from __future__ import annotations

import functools
from typing import Any, Generator, Mapping, Optional, Sequence

from ..errors import MPIError
from .comm import Endpoint
from .datatypes import HEADER_BYTES, ReduceOp, check_op, payload_nbytes
from .group import Group

__all__ = [
    "barrier",
    "bcast",
    "allgather_dissemination",
    "reduce",
    "allreduce",
    "gather",
    "allgather",
    "scatter",
    "neighbor_alltoallv",
]


def _check_member(ep: Endpoint, group: Group) -> int:
    if ep.rank not in group:
        raise MPIError(f"rank {ep.rank} is not in group {group.ranks}")
    return group.rel(ep.rank)



def _traced(func):
    """Record each call as a ``coll.<name>`` span on the member's own
    track (dynscope).  With observability off the undecorated generator
    is returned directly — zero extra frames on the hot path.  The span
    covers the whole collective, so the point-to-point spans it drives
    nest inside it; its args carry the fan-in (group size)."""
    name = func.__name__

    @functools.wraps(func)
    def wrapper(ep: Endpoint, group: Group, *args, **kwargs):
        gen = func(ep, group, *args, **kwargs)
        obs = ep.comm.obs
        if obs is None:
            return gen
        return _traced_drive(gen, obs, ep, group, name)

    return wrapper


def _traced_drive(gen, obs, ep: Endpoint, group: Group,
                  name: str) -> Generator:
    t0 = obs.now()
    try:
        result = yield from gen
    finally:
        obs.complete(
            f"coll.{name}", t0, cat="coll", pid=ep.node_id, tid=ep.rank,
            size=group.size,
        )
    return result


def _san_enter(ep: Endpoint, group: Group, tag: int, name: str,
               root: Optional[int] = None) -> None:
    """Report a collective entry to the communication sanitizer (when
    enabled): every member of ``group`` must enter the same collective,
    with the same root, under the same tag — the SPMD contract."""
    san = ep.comm.san
    if san is not None:
        san.on_collective(group.rel(ep.rank), group.gid, tag, name, root,
                          group.size)


@_traced
def barrier(ep: Endpoint, group: Group) -> Generator:
    """Dissemination barrier: ceil(log2 n) rounds of tiny messages."""
    me = _check_member(ep, group)
    n = group.size
    tag = group.next_tag(me)
    _san_enter(ep, group, tag, "barrier")
    k = 1
    while k < n:
        dst = group.world((me + k) % n)
        src = group.world((me - k) % n)
        yield from ep.sendrecv(dst, tag, None, src, tag)
        k *= 2


@_traced
def bcast(ep: Endpoint, group: Group, value: Any = None, root: int = 0) -> Generator:
    """Binomial-tree broadcast of ``value`` from relative rank ``root``.

    Returns the broadcast value on every member.
    """
    me = _check_member(ep, group)
    n = group.size
    tag = group.next_tag(me)
    _san_enter(ep, group, tag, "bcast", root)
    # rotate so the root is virtual rank 0 (MPICH-style binomial tree)
    vrank = (me - root) % n
    mask = 1
    while mask < n:
        if vrank & mask:
            parent = group.world(((vrank ^ mask) + root) % n)
            value, _ = yield from ep.recv(parent, tag)
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if vrank + mask < n:
            child = group.world((vrank + mask + root) % n)
            yield from ep.send(child, tag, value)
        mask >>= 1
    return value


@_traced
def reduce(
    ep: Endpoint,
    group: Group,
    value: Any,
    op: ReduceOp,
    root: int = 0,
) -> Generator:
    """Binomial-tree reduction; the result lands on relative ``root``
    (other members get ``None``)."""
    check_op(op)
    me = _check_member(ep, group)
    n = group.size
    tag = group.next_tag(me)
    _san_enter(ep, group, tag, "reduce", root)
    vrank = (me - root) % n
    acc = value
    mask = 1
    while mask < n:
        if vrank & mask:
            parent = group.world(((vrank ^ mask) + root) % n)
            yield from ep.send(parent, tag, acc)
            return None
        partner = vrank | mask
        if partner < n:
            child = group.world((partner + root) % n)
            other, _ = yield from ep.recv(child, tag)
            acc = op(acc, other)
        mask <<= 1
    return acc


@_traced
def allreduce(ep: Endpoint, group: Group, value: Any, op: ReduceOp) -> Generator:
    """Reduce to relative rank 0, then broadcast the result."""
    acc = yield from reduce(ep, group, value, op, root=0)
    result = yield from bcast(ep, group, acc, root=0)
    return result


@_traced
def gather(
    ep: Endpoint,
    group: Group,
    value: Any,
    root: int = 0,
) -> Generator:
    """Linear gather; the root receives ``[v_0, ..., v_{n-1}]`` in
    relative-rank order, other members get ``None``."""
    me = _check_member(ep, group)
    n = group.size
    tag = group.next_tag(me)
    _san_enter(ep, group, tag, "gather", root)
    if me != root:
        yield from ep.send(group.world(root), tag, value)
        return None
    out: list[Any] = [None] * n
    out[root] = value
    for _ in range(n - 1):
        payload, status = yield from ep.recv(tag=tag)
        out[group.rel(status.source)] = payload
    return out


@_traced
def scatter(
    ep: Endpoint,
    group: Group,
    values: Optional[Sequence[Any]] = None,
    root: int = 0,
) -> Generator:
    """Linear scatter of ``values[i]`` to relative rank ``i``."""
    me = _check_member(ep, group)
    n = group.size
    tag = group.next_tag(me)
    _san_enter(ep, group, tag, "scatter", root)
    if me == root:
        if values is None or len(values) != n:
            raise MPIError(f"scatter root needs exactly {n} values")
        for rel in range(n):
            if rel != root:
                yield from ep.send(group.world(rel), tag, values[rel])
        return values[root]
    payload, _ = yield from ep.recv(group.world(root), tag)
    return payload


@_traced
def allgather(ep: Endpoint, group: Group, value: Any) -> Generator:
    """Ring allgather: n-1 steps, each member forwards the newest block.

    Returns ``[v_0, ..., v_{n-1}]`` in relative-rank order on every
    member.  Handles variable-size contributions (allgatherv) for free
    because payloads are objects.
    """
    me = _check_member(ep, group)
    n = group.size
    tag = group.next_tag(me)
    _san_enter(ep, group, tag, "allgather")
    out: list[Any] = [None] * n
    out[me] = value
    right = group.world((me + 1) % n)
    left = group.world((me - 1) % n)
    carry_idx = me
    for _ in range(n - 1):
        sreq = ep.isend(right, tag, (carry_idx, out[carry_idx]))
        (idx, payload), _ = yield from ep.recv(left, tag)
        out[idx] = payload
        carry_idx = idx
        yield from sreq.wait()
    return out


@_traced
def allgather_dissemination(ep: Endpoint, group: Group, value: Any) -> Generator:
    """Dissemination (Bruck-style) allgather: ceil(log2 n) rounds, each
    exchanging everything gathered so far with a partner at doubling
    distance.  Latency O(log n) instead of the ring's O(n) — the right
    algorithm for the small control payloads the Dyn-MPI runtime
    exchanges every phase cycle.
    """
    me = _check_member(ep, group)
    n = group.size
    tag = group.next_tag(me)
    _san_enter(ep, group, tag, "allgather_dissemination")
    # Before the round at distance k a member holds the contributions
    # of origins me-k+1 .. me, oldest first: ``values`` and their
    # ``sizes`` (each sized once, by its owner).  Its partner me-k
    # sends its own k, origins me-2k+1 .. me-k — one contiguous run
    # just older than ours, of which the first 2k-n (if positive) we
    # already have.  A list that went on the wire is never mutated:
    # every round builds new ones.  A message is sized as the dict
    # {origin: value} of what it carries: each item counts
    # payload_nbytes(v) + 24 - HEADER_BYTES (see datatypes.py).
    values = [value]
    sizes = [payload_nbytes(value) + 24 - HEADER_BYTES]
    size = HEADER_BYTES + sizes[0]
    k = 1
    while k < n:
        dst = group.world((me + k) % n)
        src = group.world((me - k) % n)
        (in_values, in_sizes), _ = yield from ep.sendrecv(
            dst, tag, (values, sizes), src, tag, nbytes=size
        )
        skip = max(0, 2 * k - n)
        fresh = in_sizes[skip:]
        size += sum(fresh)
        values = in_values[skip:] + values
        sizes = fresh + sizes
        k *= 2
    if len(values) != n:
        raise MPIError(f"dissemination allgather incomplete: {len(values)}/{n}")
    # values[j] came from origin me+1+j (mod n)
    cut = n - 1 - me
    return values[cut:] + values[:cut]


@_traced
def neighbor_alltoallv(
    ep: Endpoint,
    group: Group,
    sends: Mapping[int, tuple[Any, Optional[int]]],
    recv_from: Sequence[int],
) -> Generator:
    """Sparse all-to-all over a caller-supplied edge set (the
    ``MPI_Neighbor_alltoallv`` shape): this member sends
    ``sends[dst] = (payload, nbytes)`` to each relative rank ``dst``
    and receives one message from each relative rank in ``recv_from``.
    Returns ``{src: (payload, nbytes)}``.

    An absent edge costs nothing — no control message — so the wire
    traffic is one message per edge.  The caller must make the edge
    sets agree across the group (``dst in sends`` on ``src`` iff
    ``src in recv_from`` on ``dst``); every member calls, *including
    members with no edges*, which keeps the group's collective tags
    aligned.

    Sends are posted in order of ``(dst - me) % n`` and receives taken
    in order of ``(me - src) % n`` — the pairwise-exchange order
    restricted to the edges — so at any step of a shift pattern each
    NIC carries one outgoing and one incoming transfer.
    """
    me = _check_member(ep, group)
    n = group.size
    for rel in (*sends, *recv_from):
        if not 0 <= rel < n or rel == me:
            raise MPIError(
                f"neighbor_alltoallv: bad peer {rel} for relative rank "
                f"{me} of {n}"
            )
    tag = group.next_tag(me)
    _san_enter(ep, group, tag, "neighbor_alltoallv")
    sreqs = []
    for dst in sorted(sends, key=lambda d: (d - me) % n):
        payload, nbytes = sends[dst]
        sreqs.append(ep.isend(group.world(dst), tag, payload, nbytes=nbytes))
    out: dict[int, tuple[Any, int]] = {}
    for src in sorted(recv_from, key=lambda s: (me - s) % n):
        payload, status = yield from ep.recv(group.world(src), tag)
        out[src] = (payload, status.nbytes)
    for sreq in sreqs:
        yield from sreq.wait()
    return out
