"""Jobs: deterministic skewed costs, pure results, and the queue.

Both the cost and the result of a job are *pure functions* of the job
id (and the farm seed) — no state, no RNG.  That single design choice
is what makes the farm's headline guarantee cheap to state and easy to
verify: the completed-result set ``{job: result}`` is bitwise-identical
across scheduling policies, perturbation seeds, and mid-run churn,
because every execution of job ``j`` returns the same
``job_results(n_jobs, seed)[j]`` no matter where or when it runs.
Schedules may differ; the *set* cannot.

Costs are skewed through the shared SplitMix64 finalizer
(:func:`repro.simcluster.rng.mix64`) so load imbalance is reproducible
without touching any RNG stream.  Both tables are built for every job
at once, one vectorised pass each, once per run: a chunk's cost and
results are lookups into them.
"""

from __future__ import annotations

import hashlib
from collections import deque

import numpy as np

from ..simcluster.rng import mix64

__all__ = [
    "job_costs", "job_results", "reference_results", "farm_digest",
    "mask_digest", "farm_oracle", "chunk_rows", "chunk_ids", "JobQueue",
]

#: domain separators so cost and result draws never correlate
_COST_SALT = 0x9E3779B97F4A7C15
_RESULT_SALT = 0xD1B54A32D192ED03


def job_costs(n_jobs: int, base: float, skew: str) -> np.ndarray:
    """Work units each job ``0..n_jobs-1`` costs under ``skew``
    (float64, indexed by job id).

    * ``uniform`` — every job costs ``base``;
    * ``linear``  — cost ramps from ``0.5*base`` to ``1.5*base`` by id
      (sorted imbalance: static chunking gives some workers all the
      heavy jobs);
    * ``hot``     — 1 job in 16 costs ``8*base``, the rest are drawn
      in ``[0.5, 1.5)*base`` by hash (heavy-tailed imbalance, the case
      dynamic policies exist for).
    """
    if skew == "uniform":
        return np.full(n_jobs, base, dtype=np.float64)
    if skew == "linear":
        return base * (0.5 + np.arange(n_jobs, dtype=np.float64)
                       / max(1, n_jobs - 1))
    if skew == "hot":
        h = mix64(np.arange(n_jobs, dtype=np.uint64) ^ np.uint64(_COST_SALT))
        costs = base * (0.5 + (h % np.uint64(1024)).astype(np.float64) / 1024.0)
        costs[h % np.uint64(16) == 0] = base * 8.0
        return costs
    raise ValueError(f"unknown skew profile {skew!r}")


def job_results(n_jobs: int, seed: int) -> np.ndarray:
    """The (pure, deterministic) result of each job ``0..n_jobs-1``
    (uint64, indexed by job id)."""
    salt = np.uint64(((seed << 32) ^ _RESULT_SALT) % 2**64)
    return mix64(np.arange(n_jobs, dtype=np.uint64) ^ salt)


def reference_results(n_jobs: int, seed: int) -> dict[int, int]:
    """What a farm run must produce — computed without running one."""
    return dict(enumerate(job_results(n_jobs, seed).tolist()))


def farm_digest(completed: dict[int, int]) -> str:
    """SHA-1 over the sorted ``(job, result)`` pairs: the byte-level
    identity the acceptance tests compare across policies/seeds/churn."""
    jobs = np.fromiter(completed.keys(), dtype=np.uint64, count=len(completed))
    vals = np.fromiter(completed.values(), dtype=np.uint64, count=len(completed))
    order = np.argsort(jobs, kind="stable")
    return _pairs_digest(jobs[order], vals[order])


def mask_digest(done: np.ndarray, values: np.ndarray) -> str:
    """:func:`farm_digest` of the jobs ``done`` marks, read from the
    completion mask and the per-job ``values`` table directly."""
    jobs = np.flatnonzero(done)
    return _pairs_digest(jobs, values[jobs])


def _pairs_digest(jobs: np.ndarray, vals: np.ndarray) -> str:
    packed = np.empty(2 * len(jobs), dtype=np.uint64)
    packed[0::2] = jobs
    packed[1::2] = vals
    return hashlib.sha1(packed.tobytes()).hexdigest()


def farm_oracle(spec):
    """Bitwise-identity check for a run of ``spec`` (a ``FarmSpec``):
    the completed set must digest to exactly what
    :func:`reference_results` predicts — regardless of policy,
    perturbation seed, or churn.  Returns ``check(result) -> str``,
    '' when the result is right."""
    expected = farm_digest(reference_results(spec.n_jobs, spec.seed))

    def check(result) -> str:
        if result.jobs_done != spec.n_jobs:
            return (f"farm completed {result.jobs_done} of "
                    f"{spec.n_jobs} jobs")
        if result.digest != expected:
            return (f"completed-result digest {result.digest} deviates "
                    f"from reference {expected}")
        return ""

    return check


def chunk_rows(jobs):
    """Index of chunk ``jobs`` into a per-job table: a slice for a run
    (so ``table[chunk_rows(run)]`` is a view), the ids themselves
    otherwise."""
    return slice(jobs.start, jobs.stop) if type(jobs) is range else jobs


def chunk_ids(jobs) -> np.ndarray:
    """Chunk ``jobs`` as an int64 array of job ids, in chunk order."""
    if type(jobs) is range:
        return np.arange(jobs.start, jobs.stop, dtype=np.int64)
    return np.asarray(jobs, dtype=np.int64)


def _frozen(ids) -> np.ndarray:
    """A read-only int64 copy of ``ids``: nothing a caller does to its
    own list or array later reaches the queue or a dispatched chunk."""
    arr = np.array(ids, dtype=np.int64)
    arr.flags.writeable = False
    return arr


class JobQueue:
    """The master's pool of unscheduled jobs, held as runs of job ids.

    Each run is a ``range`` (never-dispatched jobs: the initial
    ``0..n_jobs-1``, the unclaimed tail of an ``rma`` counter) or a
    read-only int64 array (one per requeued batch).  ``take`` serves
    from the head without building a per-job object: a chunk inside one
    run is a sub-``range`` or an array view, one spanning runs a new
    array.  ``requeue`` appends lost jobs to the tail and counts each
    job's requeue.
    """

    def __init__(self, jobs=range(0)):
        self._runs: deque = deque()
        self._len = 0
        self.requeued: dict[int, int] = {}
        self.extend(jobs)

    def __len__(self) -> int:
        return self._len

    def take(self, k: int):
        """Up to ``k`` jobs off the head: a ``range`` or an int64 array."""
        k = min(k, self._len)
        parts = []
        while k > 0:
            run = self._runs[0]
            if len(run) <= k:
                part = self._runs.popleft()
            else:
                part, self._runs[0] = run[:k], run[k:]
            parts.append(part)
            k -= len(part)
            self._len -= len(part)
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return range(0)
        return _frozen(np.concatenate([chunk_ids(p) for p in parts]))

    def extend(self, jobs) -> None:
        """Append never-dispatched jobs (no requeue accounting)."""
        self._append(jobs if type(jobs) is range else _frozen(jobs))

    def requeue(self, jobs) -> int:
        """Append lost jobs; returns how many were added."""
        run = _frozen(jobs)
        self._append(run)
        for j in run.tolist():
            self.requeued[j] = self.requeued.get(j, 0) + 1
        return len(run)

    @property
    def n_requeued(self) -> int:
        return sum(self.requeued.values())

    def _append(self, run) -> None:
        if len(run):
            self._runs.append(run)
            self._len += len(run)
