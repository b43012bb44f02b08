"""In-memory neighbor checkpointing (the data side of crash recovery).

The paper's Section 4.1 projection layout makes a checkpoint cheap to
express: a rank's state *is* its owned extended rows, so a checkpoint
is one :meth:`pack` per registered array — the same serialization the
redistribution path uses — plus the owning bounds and cycle number.

Every ``checkpoint_interval`` cycles each active rank exchanges its
snapshot with its *ring buddies*: relative rank ``r`` sends to ``r+1,
..., r+replication`` (mod group size) and symmetrically receives from
``r-1, ..., r-replication``.  Replicas live in the buddies' memory
(:class:`CheckpointStore`), not on disk — surviving ``replication``
simultaneous failures of adjacent ranks, which is the classic
diskless-checkpointing trade-off.

On a crash, the surviving buddy *replays* the dead rank's rows from
its stored snapshot: it unpacks them into its own arrays and stands in
as the old owner during the recovery redistribution (planned by
``core.transition.plan_recovery``, executed by ``DynMPI._apply``),
replacing the send-out phase the dead rank can no longer perform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Mapping, Optional, Sequence

from .._intervals import IntervalSet  # leaf import: keeps repro.core acyclic
from ..errors import CheckpointLostError

__all__ = [
    "Checkpoint",
    "CheckpointStore",
    "ring_buddies",
    "holder_for",
    "snapshot",
    "checkpoint_exchange",
]

#: wire overhead of a checkpoint message (headers + bounds + cycle)
_HEADER_BYTES = 64


@dataclass
class Checkpoint:
    """One rank's serialized state at a phase-cycle boundary."""

    owner_world: int
    cycle: int
    bounds: Optional[tuple[int, int]]
    #: array name -> (row IntervalSet, packed payload); payload is None
    #: for virtual arrays (sizes were still charged on the wire)
    arrays: dict = field(default_factory=dict)
    nbytes: int = _HEADER_BYTES

    def owned_rows(self) -> IntervalSet:
        """The owner's row interval (compares equal to the equivalent
        plain set)."""
        return IntervalSet.from_bounds(self.bounds)

    def n_rows(self) -> int:
        return len(self.owned_rows())

    def restore(self, arrays: Mapping[str, object]) -> int:
        """Unpack every checkpointed row into ``arrays`` (the holder's
        own array objects); returns the number of row-installs."""
        installed = 0
        for name, (rows, payload) in self.arrays.items():
            arrays[name].unpack(rows, payload)
            installed += len(rows)
        return installed


class CheckpointStore:
    """The replicas one rank holds for its ring neighbors (newest only
    per owner — neighbor checkpointing keeps a single generation)."""

    def __init__(self) -> None:
        self._by_owner: dict[int, Checkpoint] = {}

    def put(self, ckpt: Checkpoint) -> None:
        self._by_owner[ckpt.owner_world] = ckpt

    def get(self, owner_world: int) -> Optional[Checkpoint]:
        return self._by_owner.get(owner_world)

    def discard(self, owner_world: int) -> None:
        self._by_owner.pop(owner_world, None)

    def owners(self) -> list[int]:
        return sorted(self._by_owner)

    @property
    def held_nbytes(self) -> int:
        return sum(c.nbytes for c in self._by_owner.values())


def ring_buddies(rel: int, size: int, replication: int) -> list[int]:
    """The relative ranks holding replicas of ``rel``'s checkpoint."""
    return [(rel + k) % size for k in range(1, min(replication, size - 1) + 1)]


def holder_for(dead_rel: int, size: int, replication: int,
               alive_rels: set[int]) -> int:
    """The surviving buddy that replays ``dead_rel``'s checkpoint: the
    nearest ring buddy still alive.  Raises
    :class:`~repro.errors.CheckpointLostError` when every replica died
    with its holder."""
    for buddy in ring_buddies(dead_rel, size, replication):
        if buddy in alive_rels:
            return buddy
    raise CheckpointLostError(
        f"rank rel={dead_rel} and all {replication} of its checkpoint "
        f"buddies failed in the same window; raise "
        f"ResilienceSpec.replication to tolerate this"
    )


def snapshot(arrays: Mapping[str, object],
             bounds: Optional[tuple[int, int]],
             owner_world: int, cycle: int) -> Checkpoint:
    """Serialize ``owner_world``'s owned rows of every registered array."""
    ckpt = Checkpoint(owner_world=owner_world, cycle=cycle, bounds=bounds)
    if bounds is None:
        return ckpt
    s, e = bounds
    for name, arr in arrays.items():
        # clip the owned range against the array height up front: one
        # interval op, and the pack below moves whole slabs per array
        rows = IntervalSet.span(s, min(e, arr.n_rows - 1))
        if not rows:
            continue
        payload, nb = arr.pack(rows)
        ckpt.arrays[name] = (rows, payload)
        ckpt.nbytes += nb
    return ckpt


def checkpoint_exchange(ep, group, store: CheckpointStore,
                        ckpt: Checkpoint, replication: int,
                        rows_getter=None) -> Generator:
    """Exchange checkpoints around the ring (a collective: every member
    of ``group`` must enter, in lockstep, with its own snapshot).

    ``rel r`` sends its snapshot to ``r+k`` and receives ``r-k``'s, for
    ``k = 1..replication``; each incoming snapshot replaces the stored
    replica for that owner.  Returns the number of replicas received.
    """
    me = group.rel(ep.rank)
    n = group.size
    obs = getattr(ep.comm, "obs", None)
    if obs is not None:
        reg = obs.rank_registry(ep.rank)
        reg.count("ckpt.snapshots", 1)
        reg.count("ckpt.bytes", ckpt.nbytes)
    if n == 1:
        store.put(ckpt)  # degenerate ring: self-replica
        return 1
    received = 0
    for k in range(1, min(replication, n - 1) + 1):
        dst = group.world((me + k) % n)
        src = group.world((me - k) % n)
        tag = group.next_tag(me)
        incoming, _ = yield from ep.sendrecv(
            dst, tag, ckpt, src, tag, nbytes=ckpt.nbytes,
        )
        store.put(incoming)
        received += 1
    if obs is not None:
        reg.count("ckpt.replicas_received", received)
        reg.gauge("ckpt.held_bytes", store.held_nbytes)
    return received
