"""Wire protocol of the task farm: the reserved tag band.

The farm reserves user-tag band ``[210, 220)``; lint rule DYN1101
flags raw literals from this band used as message tags outside the
farm runtime, so application code cannot accidentally splice into the
master/worker conversation.

Message flow (PDSA-RTS ``slave.py`` idiom):

========  =================  =====================================
tag       direction          meaning
========  =================  =====================================
READY     worker -> master   idle and willing to take a chunk; in
                             RMA mode also "my counter phase is
                             over, feed me requeues"
START     master -> worker   payload: the chunk's job ids, a
                             ``range`` or an int64 array
DONE      worker -> master   payload: ``(jobs, results[jobs])``, the
                             results a uint64 array (a view of the
                             read-only table for a range); in
                             master-dispatch policies it doubles as
                             the next READY
EXIT      master -> worker   farm drained; terminate
PARK      master -> worker   node is loaded (or draining): stop
                             claiming counter chunks; a no-op for a
                             worker already in the dispatch loop
========  =================  =====================================
"""

from __future__ import annotations

__all__ = [
    "FARM_TAG_BASE", "FARM_TAG_LIMIT",
    "TAG_READY", "TAG_START", "TAG_DONE", "TAG_EXIT", "TAG_PARK",
    "start_nbytes", "done_nbytes",
]

#: reserved user-tag band for the farm protocol (DYN1101-guarded)
FARM_TAG_BASE = 210
FARM_TAG_LIMIT = 220

TAG_READY = FARM_TAG_BASE + 1
TAG_START = FARM_TAG_BASE + 2
TAG_DONE = FARM_TAG_BASE + 3
TAG_EXIT = FARM_TAG_BASE + 4
TAG_PARK = FARM_TAG_BASE + 5

#: message header + 8 bytes per job id
def start_nbytes(n_jobs: int) -> int:
    return 64 + 8 * n_jobs


#: message header + (job id, result) word pair per job
def done_nbytes(n_jobs: int) -> int:
    return 64 + 16 * n_jobs
