"""Elastic task-farm runtime (dynfarm).

A master/worker job farm over the simulated cluster: a
:class:`~repro.farm.jobs.JobQueue` of independent jobs with skewed
deterministic costs, dispatched to workers through the tag-based
READY/START/DONE/EXIT protocol (:mod:`repro.farm.protocol`) under a
pluggable loop-scheduling policy (:mod:`repro.farm.policies`) —
including decentralized self-scheduling where workers advance a shared
loop counter with one-sided :meth:`~repro.mpi.rma.RmaHandle.fetch_and_op`
instead of round-tripping through the master.

Elasticity rides the existing load/removal machinery: workers on nodes
loaded by a ``LoadScript`` are parked (their in-flight chunk requeued
once, duplicates deduplicated by the completed set), crashed workers'
jobs are requeued, and re-admitted workers rejoin the dispatch pool.
The completed-result set is bitwise-identical regardless of policy,
perturbation seed, or mid-run churn — see docs/FARM.md.
"""

from .jobs import (JobQueue, farm_digest, farm_oracle, job_costs, job_results,
                   reference_results)
from .policies import POLICIES, make_policy
from .protocol import (
    FARM_TAG_BASE,
    FARM_TAG_LIMIT,
    TAG_DONE,
    TAG_EXIT,
    TAG_PARK,
    TAG_READY,
    TAG_START,
)
from .runtime import FarmResult, FarmSpec, run_farm

__all__ = [
    "FarmSpec",
    "FarmResult",
    "run_farm",
    "JobQueue",
    "job_costs",
    "job_results",
    "reference_results",
    "farm_digest",
    "farm_oracle",
    "POLICIES",
    "make_policy",
    "FARM_TAG_BASE",
    "FARM_TAG_LIMIT",
    "TAG_READY",
    "TAG_START",
    "TAG_DONE",
    "TAG_EXIT",
    "TAG_PARK",
]
