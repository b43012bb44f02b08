"""Node removal decisions (paper Sections 4.4 and 2.2).

After a redistribution, Dyn-MPI monitors for ``post_redist_period``
phase cycles, then compares the worst measured per-cycle time against
the *predicted* time of a configuration containing only unloaded nodes
— which can be predicted with high accuracy, because unloaded nodes
have no scheduling unpredictability.  If the prediction wins, the
loaded nodes are dropped.

Two drop modes:

* **physical** (paper default) — the node leaves the computation;
  relative ranks are reassigned, collectives shrink to the active
  group, and the removed node only receives *send-out* traffic.
* **logical** — the node stays but is assigned a minimal number of
  rows, so ranks stay static.  The paper notes the performance gap
  between the two can be significant; the ablation bench measures it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..config import RuntimeSpec
from ..errors import DistributionError
from .balance import closed_form_shares
from .commcost import CommCostModel, PhasePattern

__all__ = ["DropDecision", "evaluate_drop"]


@dataclass(frozen=True)
class DropDecision:
    drop: bool
    removed: tuple            # relative ranks (current group) to remove
    predicted_time: float     # predicted cycle time of the chosen config
    measured_time: float      # measured max avg cycle time that triggered it
    keep_shares: Optional[np.ndarray] = None  # shares over the kept nodes


def evaluate_drop(
    loads: Sequence[int],
    speeds: Sequence[float],
    total_work: float,
    patterns: Sequence[PhasePattern],
    model: CommCostModel,
    n_rows: int,
    measured_max: float,
    spec: RuntimeSpec,
) -> DropDecision:
    """Decide whether (and which) loaded nodes to remove.

    ``measured_max`` is the maximum over nodes of the average phase
    cycle time during the post-redistribution grace period.
    """
    loads = np.asarray(loads, dtype=int)
    speeds = np.asarray(speeds, dtype=float)
    if speeds.size != loads.size:
        raise DistributionError("loads and speeds must have the same length")
    loaded = np.flatnonzero(loads > 1)
    unloaded = np.flatnonzero(loads <= 1)

    no_drop = DropDecision(False, (), float("nan"), measured_max)
    if not spec.allow_removal or loaded.size == 0 or unloaded.size == 0:
        return no_drop

    # the paper's candidate: all loaded nodes removed
    removed = tuple(loaded)
    try:
        res = closed_form_shares(total_work, speeds[unloaded], patterns,
                                 model, n_rows)
    except DistributionError:
        return no_drop
    pred, shares = res.predicted_cycle_time, res.shares
    if pred * spec.drop_margin < measured_max:
        # the decision is shared by every rank that acts on it
        shares.setflags(write=False)
        return DropDecision(True, removed, pred, measured_max, keep_shares=shares)
    return DropDecision(False, removed, pred, measured_max)
