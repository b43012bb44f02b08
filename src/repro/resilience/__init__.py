"""repro.resilience — fault injection, checkpointing, crash recovery.

The subsystem has three cooperating parts (docs/RESILIENCE.md):

* **Failure injection** (:mod:`.failures`): a :class:`FailureScript`
  is a :class:`~repro.simcluster.workload.Script` whose time and
  phase-cycle triggers are faults — node crashes, hard process kills,
  exception injection, transient slowdowns and network partitions.
  Each node records its own crash and kill times
  (:class:`~repro.simcluster.node.Node`).

* **In-memory neighbor checkpointing** (:mod:`.checkpoint`): each rank
  periodically packs its owned extended rows (the same serialization
  redistribution uses) and ships the snapshot to its ring buddies.

* **Crash recovery** (in :class:`repro.core.runtime.DynMPI`): a stale
  ``dmpi_ps`` heartbeat makes relative-rank-0 suspect the node; the
  suspicion rides the per-cycle control allgather so every rank sees
  one consistent verdict; survivors excise the dead rank like an
  involuntary Section 4.4 removal, with the buddy replaying the lost
  rows from its stored checkpoint.
"""

from .checkpoint import (
    Checkpoint,
    CheckpointStore,
    checkpoint_exchange,
    holder_for,
    ring_buddies,
    snapshot,
)
from .failures import (
    CycleFault,
    FailureScript,
    InjectedFault,
    TimeFault,
    node_crash,
    terminate_rank,
)

__all__ = [
    "Checkpoint",
    "CheckpointStore",
    "checkpoint_exchange",
    "holder_for",
    "ring_buddies",
    "snapshot",
    "CycleFault",
    "FailureScript",
    "InjectedFault",
    "TimeFault",
    "node_crash",
    "terminate_rank",
]
