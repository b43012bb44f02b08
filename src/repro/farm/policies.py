"""Loop-scheduling policies: how big the next dispatched chunk is.

The classic dynamic-loop-scheduling ladder (static chunking,
self-scheduling, guided self-scheduling, factoring), plus ``rma`` —
decentralized self-scheduling where workers claim fixed chunks off a
shared loop counter with one-sided ``fetch_and_op`` and the master's
process stays off the dispatch path entirely.

A policy only answers ``next_chunk(queued, active)``; the farm master
owns everything else (who is ready, parked, dead).  For ``rma`` the
same answer sizes the *drain phase* (requeued jobs after churn); the
counter phase uses ``FarmSpec.chunk`` directly at the workers.
"""

from __future__ import annotations

__all__ = ["POLICIES", "make_policy", "ChunkPolicy"]

#: every shipped policy, in bench/campaign axis order
POLICIES = ("static", "self", "guided", "factoring", "rma")


class ChunkPolicy:
    """Base: fixed-size chunks (plain self-scheduling)."""

    name = "self"

    def __init__(self, n_jobs: int, n_workers: int, chunk: int):
        self.n_jobs = n_jobs
        self.n_workers = max(1, n_workers)
        self.chunk = max(1, chunk)

    def next_chunk(self, queued: int, active: int) -> int:
        return min(self.chunk, queued)


class StaticChunking(ChunkPolicy):
    """One ``n_jobs / n_workers`` block per worker, sized up front.
    Requeued work is re-served in the same block size."""

    name = "static"

    def __init__(self, n_jobs: int, n_workers: int, chunk: int):
        super().__init__(n_jobs, n_workers, chunk)
        self.block = max(1, -(-n_jobs // self.n_workers))

    def next_chunk(self, queued: int, active: int) -> int:
        return min(self.block, queued)


class GuidedSelfScheduling(ChunkPolicy):
    """Chunk = remaining / (2 * active workers), floored at 1: big
    chunks early (low dispatch overhead), small chunks late (balance)."""

    name = "guided"

    def next_chunk(self, queued: int, active: int) -> int:
        return min(queued, max(1, queued // (2 * max(1, active))))


class Factoring(ChunkPolicy):
    """Factoring: schedule rounds of half the remaining iterations,
    split evenly over the workers; chunk size stays fixed within a
    round (more robust than guided under high cost variance)."""

    name = "factoring"

    def __init__(self, n_jobs: int, n_workers: int, chunk: int):
        super().__init__(n_jobs, n_workers, chunk)
        self._round_left = 0
        self._round_chunk = 1

    def next_chunk(self, queued: int, active: int) -> int:
        if self._round_left <= 0:
            batch = max(1, -(-queued // 2))
            self._round_chunk = max(1, -(-batch // max(1, active)))
            self._round_left = batch
        c = min(self._round_chunk, queued)
        self._round_left -= c
        return c


class RmaDrain(ChunkPolicy):
    """Drain-phase sizing for the ``rma`` policy: the counter phase
    happens at the workers; only post-churn requeues flow through the
    master, in plain fixed chunks."""

    name = "rma"


_POLICY_CLASSES = {
    "static": StaticChunking,
    "self": ChunkPolicy,
    "guided": GuidedSelfScheduling,
    "factoring": Factoring,
    "rma": RmaDrain,
}


def make_policy(name: str, n_jobs: int, n_workers: int,
                chunk: int) -> ChunkPolicy:
    """The policy object for ``name`` (one of :data:`POLICIES`, which
    ``FarmSpec.validate`` has checked)."""
    return _POLICY_CLASSES[name](n_jobs, n_workers, chunk)
