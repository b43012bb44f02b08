"""Jobs: deterministic skewed costs, pure results, and the queue.

Both the cost and the result of a job are *pure functions* of the job
id (and the farm seed) — no state, no RNG.  That single design choice
is what makes the farm's headline guarantee cheap to state and easy to
verify: the completed-result set ``{job: result}`` is bitwise-identical
across scheduling policies, perturbation seeds, and mid-run churn,
because every execution of job ``j`` computes the same
``job_result(j, seed)`` no matter where or when it runs.  Schedules
may differ; the *set* cannot.

Costs are skewed through a stable 64-bit mix (SplitMix64 finalizer) so
load imbalance is reproducible without touching any RNG stream.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "job_cost", "job_result", "reference_results", "farm_digest",
    "farm_oracle", "JobQueue",
]

_MASK = (1 << 64) - 1

#: domain separators so cost and result draws never correlate
_COST_SALT = 0x9E3779B97F4A7C15
_RESULT_SALT = 0xD1B54A32D192ED03


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: a stable, well-mixed 64-bit hash."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def job_cost(job: int, n_jobs: int, base: float, skew: str) -> float:
    """Work units job ``job`` costs under the ``skew`` profile.

    * ``uniform`` — every job costs ``base``;
    * ``linear``  — cost ramps from ``0.5*base`` to ``1.5*base`` by id
      (sorted imbalance: static chunking gives some workers all the
      heavy jobs);
    * ``hot``     — 1 job in 16 costs ``8*base``, the rest are drawn
      in ``[0.5, 1.5)*base`` by hash (heavy-tailed imbalance, the case
      dynamic policies exist for).
    """
    if skew == "uniform":
        return base
    if skew == "linear":
        return base * (0.5 + job / max(1, n_jobs - 1))
    if skew == "hot":
        h = _mix64(job ^ _COST_SALT)
        if h % 16 == 0:
            return base * 8.0
        return base * (0.5 + (h % 1024) / 1024.0)
    raise ValueError(f"unknown skew profile {skew!r}")


def job_result(job: int, seed: int) -> int:
    """The (pure, deterministic) result of running job ``job``."""
    return _mix64((seed << 32) ^ job ^ _RESULT_SALT)


def reference_results(n_jobs: int, seed: int) -> dict[int, int]:
    """What a farm run must produce — computed without running one."""
    return {j: job_result(j, seed) for j in range(n_jobs)}


def farm_digest(completed: dict[int, int]) -> str:
    """SHA-1 over the sorted ``(job, result)`` pairs: the byte-level
    identity the acceptance tests compare across policies/seeds/churn."""
    if not completed:
        return hashlib.sha1(b"").hexdigest()
    jobs = np.fromiter(completed.keys(), dtype=np.uint64, count=len(completed))
    order = np.argsort(jobs, kind="stable")
    vals = np.fromiter(completed.values(), dtype=np.uint64, count=len(completed))
    packed = np.empty(2 * len(completed), dtype=np.uint64)
    packed[0::2] = jobs[order]
    packed[1::2] = vals[order]
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


class JobQueue:
    """The master's pool of unscheduled jobs.

    ``take`` serves from the head; ``requeue`` appends lost chunks to
    the tail and counts each job's requeue.  O(1) amortized take via a
    head cursor (the backing list is compacted when the dead prefix
    outgrows the live remainder).
    """

    def __init__(self, jobs=()):
        self._items: list[int] = list(jobs)
        self._head = 0
        self.requeued: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._items) - self._head

    def take(self, k: int) -> list[int]:
        k = min(k, len(self))
        if k <= 0:
            return []
        out = self._items[self._head:self._head + k]
        self._head += k
        if self._head > 4096 and self._head * 2 > len(self._items):
            del self._items[:self._head]
            self._head = 0
        return out

    def extend(self, jobs) -> None:
        """Append never-dispatched jobs (no requeue accounting)."""
        self._items.extend(jobs)

    def requeue(self, jobs) -> int:
        """Append lost jobs; returns how many were added."""
        added = 0
        for j in jobs:
            self._items.append(j)
            self.requeued[j] = self.requeued.get(j, 0) + 1
            added += 1
        return added

    @property
    def n_requeued(self) -> int:
        return sum(self.requeued.values())
