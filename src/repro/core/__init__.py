"""The Dyn-MPI runtime — the paper's contribution.

Public surface:

* :class:`DynMPIJob` / :class:`DynMPI` — the runtime and per-rank API.
* :class:`DRSD` / :class:`AccessMode` — deferred regular section
  descriptors for array accesses.
* :class:`BlockDistribution` / :func:`shares_to_blocks` — data
  distributions.
* :func:`successive_balance` / :func:`closed_form_shares` /
  :func:`naive_shares` — distribution computation.
* :class:`CommCostModel` + phase patterns — micro-benchmark-fitted
  communication costs.
* :func:`evaluate_drop` — node-removal decisions.
"""

from .balance import (
    BalanceResult,
    closed_form_shares,
    predict_times,
    successive_balance,
)
from .commcost import (
    CommCostModel,
    NearestNeighbor,
    NoComm,
    PhasePattern,
    RingAllgather,
    ScalarAllreduce,
    measure_comm_model,
)
from .distribution import BlockDistribution, shares_to_blocks
from .drsd import DRSD, AccessMode
from .intervals import IntervalSet
from .phase import Phase
from .power import available_powers, naive_shares
from .redistribute import RedistReport, needed_map, redistribute
from .removal import DropDecision, evaluate_drop
from .runtime import DynMPI, DynMPIJob, RuntimeEvent
from . import capi
from .timing import GraceSamples, estimate_unloaded_times

__all__ = [
    "DynMPI",
    "DynMPIJob",
    "capi",
    "RuntimeEvent",
    "DRSD",
    "AccessMode",
    "IntervalSet",
    "Phase",
    "BlockDistribution",
    "shares_to_blocks",
    "BalanceResult",
    "successive_balance",
    "closed_form_shares",
    "predict_times",
    "naive_shares",
    "available_powers",
    "CommCostModel",
    "measure_comm_model",
    "PhasePattern",
    "NearestNeighbor",
    "RingAllgather",
    "ScalarAllreduce",
    "NoComm",
    "GraceSamples",
    "estimate_unloaded_times",
    "needed_map",
    "redistribute",
    "RedistReport",
    "DropDecision",
    "evaluate_drop",
]
