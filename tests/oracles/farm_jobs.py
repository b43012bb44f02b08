"""Per-job scalar reference for ``repro.farm.jobs.job_costs`` /
``job_results`` and for the master's completion mask.

The library prices every job of a run at once, one vectorised
SplitMix64 pass over all job ids, and the master records a DONE with a
few array operations on a completion mask; these are the pure-Python
per-job versions they replaced, kept so ``tests/test_farm_jobs.py`` can
check them element for element, bit for bit.
"""

from __future__ import annotations

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
    """Work units job ``job`` costs under the ``skew`` profile."""
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
    """The completed set a farm run must produce, one job at a time."""
    return {j: job_result(j, seed) for j in range(n_jobs)}


def chunk_work(jobs, n_jobs: int, base: float, skew: str) -> float:
    """A chunk's ``Compute`` work as the per-job loop summed it: left to
    right from ``0.0`` in ``jobs`` order."""
    total = 0.0
    for j in jobs:
        total += job_cost(j, n_jobs, base, skew)
    return total


class DictMerge:
    """The farm master's completion state as it was kept per job: a
    ``{job: result}`` dict fed one ``(job, result)`` pair at a time.  The
    first report of a job wins; every later one is a duplicate."""

    def __init__(self, workers):
        self.completed: dict[int, int] = {}
        self.per_worker: dict[int, int] = {r: 0 for r in workers}
        self.duplicates = 0

    def merge(self, src: int, pairs) -> None:
        for j, r in pairs:
            if j in self.completed:
                self.duplicates += 1
            else:
                self.completed[j] = r
                self.per_worker[src] = self.per_worker.get(src, 0) + 1
