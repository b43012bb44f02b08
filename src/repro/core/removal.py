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

``partial removal`` (the paper's future work) additionally evaluates
keeping subsets of the loaded nodes, using the load-scaled power
estimate the paper says would need better prediction — it is off by
default and exists for the extension experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
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
    n = loads.size
    if speeds.size != n:
        raise DistributionError("loads and speeds must have the same length")
    loaded = np.flatnonzero(loads > 1)
    unloaded = np.flatnonzero(loads <= 1)

    no_drop = DropDecision(False, (), float("nan"), measured_max)
    if not spec.allow_removal or loaded.size == 0 or unloaded.size == 0:
        return no_drop

    candidates: list[tuple[tuple, np.ndarray]] = []
    # the paper's candidate: all loaded nodes removed
    candidates.append((tuple(loaded), speeds[unloaded]))
    if spec.partial_removal:
        # future-work extension: keep some loaded nodes, with their
        # power discounted by measured load.  The candidate sweep is
        # combinatorial by design and gated off by default; it runs
        # once per adaptation decision, never per event.
        all_ranks = np.arange(n)
        for r in range(1, loaded.size):
            for keep_loaded in combinations(loaded, r):
                removed_arr = np.setdiff1d(loaded, keep_loaded)
                kept = np.setdiff1d(all_ranks, removed_arr)
                avails = speeds[kept] / np.maximum(loads[kept], 1)
                candidates.append((tuple(int(x)
                                         for x in removed_arr), avails))

    best: Optional[tuple[float, tuple, np.ndarray]] = None
    for removed, avails in candidates:
        try:
            res = closed_form_shares(total_work, avails, patterns, model, n_rows)
        except DistributionError:
            continue
        pred = res.predicted_cycle_time
        if best is None or pred < best[0]:
            best = (pred, removed, res.shares)
    if best is None:
        return no_drop

    pred, removed, shares = best
    if pred * spec.drop_margin < measured_max:
        # the decision is shared by every rank that acts on it
        shares.setflags(write=False)
        return DropDecision(True, removed, pred, measured_max, keep_shares=shares)
    return DropDecision(False, removed, pred, measured_max)
