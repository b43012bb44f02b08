"""The decision half of adaptation: pure planners of the replicated view.

Dyn-MPI redistributes without a negotiation round because every active
rank derives the same decision from the same replicated state (paper
Section 4.4).  That state is a :class:`View`; every change to it is one
frozen :class:`Transition`, produced here by functions with no
simulator, no communication and no runtime object, and executed by the
one mechanism :meth:`repro.core.runtime.DynMPI._apply`.  The runtime
plans each adaptation once per job and every member installs that one
``Transition`` — a rejoining rank receives it in its token — so its
arrays are read-only (:meth:`View.sealed`).
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from ..config import RuntimeSpec
from ..errors import SimulationError
from ..resilience.checkpoint import holder_for
from .balance import successive_balance
from .commcost import CommCostModel, PhasePattern
from .distribution import BlockDistribution, shares_to_blocks
from .intervals import IntervalSet
from .removal import DropDecision

__all__ = ["MODE_NORMAL", "MODE_GRACE", "MODE_POST", "View", "Transition",
           "even_by_weight", "plan_rebalance", "plan_drop", "plan_rejoin",
           "plan_recovery", "LOGICAL_MIN_ROWS"]

MODE_NORMAL = "normal"
MODE_GRACE = "grace"
MODE_POST = "post"
#: rows a logically dropped node keeps (paper Section 2.2: "a minimal
#: amount of data")
LOGICAL_MIN_ROWS = 1


class View(NamedTuple):
    """The adaptation state every active rank holds identically."""

    world: tuple                        # active world ranks, in relative-rank order
    bounds: tuple                       # per relative rank: (lo, hi) inclusive | None
    loads: Optional[np.ndarray]         # last agreed dmpi_ps load per relative rank
    row_weights: Optional[np.ndarray]   # unloaded seconds per iteration, per row
    n_redistributions: int
    mode: str
    dead_world: tuple                   # sorted world ranks agreed dead

    def fingerprint(self) -> tuple:
        """Field for field as plain comparable values (arrays as bytes)."""
        return tuple(x.tobytes() if isinstance(x, np.ndarray) else x
                     for x in self)

    def sealed(self) -> "View":
        """This view with its arrays made read-only, in place.  A
        Transition is shared by every rank that installs it, so an
        in-place write by one of them must raise, not reach its peers."""
        for a in (self.loads, self.row_weights):
            if a is not None:
                a.setflags(write=False)
        return self


class Transition(NamedTuple):
    """One planned change of the replicated view."""

    kind: str                        # the adaptation event kind it is recorded as
    exchange_world: Optional[tuple]  # world ranks rows move over; None: no row moves
    old_ownership: tuple             # per exchange rank: (lo, hi) | IntervalSet | None
    new_bounds: tuple                # per exchange rank: (lo, hi) | None
    after: View                      # what every member of ``after.world`` installs
    recorder: int                    # world rank that records the adaptation event
    detail: dict                     # the event's detail
    replays: tuple = ()              # (dead world rank, checkpoint holder) pairs


def even_by_weight(loop_size: int, n: int, row_weights) -> tuple:
    """Bounds giving ``n`` ranks equal shares of the measured work."""
    return shares_to_blocks(loop_size, np.ones(n) / n, row_weights).bounds


def plan_rebalance(view: View, loop_size: int, gathered: Sequence[tuple], *,
                   ref_speed: float, patterns: Sequence[PhasePattern],
                   comm_model: CommCostModel, source: str) -> Transition:
    """Section 4.3 balancing over the allgathered grace-period
    estimates: ``gathered[rel] = (rows, unloaded seconds per row)``."""
    weights = np.zeros(loop_size)
    for rows, ests in gathered:
        if len(rows):
            weights[np.asarray(rows, dtype=int)] = ests
    # guard against zero measurements (a row that never got timed
    # cannot be weightless or the block split degenerates); no
    # upper clipping — genuinely heavy rows are exactly what the
    # unbalanced-computation support must preserve (Section 5.4)
    positive = weights[weights > 0]
    weights = np.maximum(
        weights, float(positive.min()) * 1e-3 if positive.size else 1.0
    )
    result = successive_balance(
        float(weights.sum()) * ref_speed,
        (ref_speed / np.maximum(view.loads, 1)).astype(float), view.loads,
        patterns, comm_model, loop_size,
    )
    new_bounds = shares_to_blocks(loop_size, result.shares, weights).bounds
    after = view._replace(
        bounds=new_bounds, row_weights=weights,
        n_redistributions=view.n_redistributions + 1, mode=MODE_POST,
    ).sealed()
    return Transition(
        "redistribute", view.world, view.bounds, new_bounds, after,
        view.world[0],
        {"shares": result.shares.tolist(), "loads": view.loads.tolist(),
         "source": source, "rounds": result.rounds},
    )


def plan_drop(view: View, loop_size: int, decision: DropDecision,
              spec: RuntimeSpec) -> Transition:
    """Remove ``decision.removed`` (relative ranks).  *Physical*: they
    give up every row over the old group, then leave it.  *Logical*:
    each keeps :data:`LOGICAL_MIN_ROWS` rows at its rank position."""
    world = view.world
    n = len(world)
    removed = sorted(decision.removed)
    dropped = frozenset(removed)
    kept = [r for r in range(n) if r not in dropped]
    times = {"predicted": decision.predicted_time,
             "measured": decision.measured_time}
    after = view._replace(mode=MODE_NORMAL)
    if spec.drop_mode == "physical":
        shares = np.zeros(n)
        shares[kept] = decision.keep_shares
        new_bounds = shares_to_blocks(loop_size, shares, view.row_weights).bounds
        after = after._replace(
            world=tuple(world[r] for r in kept),
            bounds=tuple(new_bounds[r] for r in kept),
            loads=view.loads[kept],
        )
        return Transition(
            "drop", world, view.bounds, new_bounds, after.sealed(), world[0],
            {"removed_world": [world[r] for r in removed], **times},
        )
    counts = np.zeros(n, dtype=int)
    counts[removed] = LOGICAL_MIN_ROWS
    free_rows = loop_size - counts.sum()
    if free_rows <= 0:
        raise SimulationError("logical drop leaves no rows for active nodes")
    keep_shares = np.asarray(decision.keep_shares, dtype=float)
    kept_counts = np.maximum(np.rint(keep_shares * free_rows).astype(int), 0)
    # fix rounding to hit the total exactly, largest shares first
    diff = free_rows - kept_counts.sum()
    order = np.argsort(-keep_shares)
    step = 1 if diff > 0 else -1
    i = 0
    while diff != 0:
        j = order[i % len(kept)]
        if kept_counts[j] + step >= 0:
            kept_counts[j] += step
            diff -= step
        i += 1
    counts[kept] = kept_counts
    new_bounds = BlockDistribution.from_counts(counts.tolist()).bounds
    return Transition(
        "logical_drop", world, view.bounds, new_bounds,
        after._replace(bounds=new_bounds).sealed(), world[0],
        {"removed_rel": removed, **times},
    )


def plan_rejoin(view: View, loop_size: int, rejoining: Sequence[int]) -> Transition:
    """Re-admit the parked world ranks ``rejoining`` (Section 2.2): the
    exchange runs over the grown group, where they own nothing yet."""
    world = tuple(sorted(set(view.world) | set(rejoining)))
    owned = dict(zip(view.world, view.bounds))
    new_bounds = even_by_weight(loop_size, len(world), view.row_weights)
    after = view._replace(
        world=world, bounds=new_bounds,
        loads=np.ones(len(world), dtype=int), mode=MODE_NORMAL,
    ).sealed()
    return Transition(
        "rejoin", world, tuple(owned.get(w) for w in world), new_bounds,
        after, view.world[0], {"rejoined_world": list(rejoining)},
    )


def plan_recovery(view: View, loop_size: int, dead: Sequence[int],
                  replication: int, array_rows: Mapping[str, int]) -> Transition:
    """Excise the crashed world ranks ``dead``.  Each dead *active*
    rank's rows are adopted by its nearest surviving ring buddy, which
    replays them from the checkpoint it holds: the holder's old
    ownership is a row :class:`IntervalSet` (its own rows plus the
    adopted, possibly non-contiguous ones).  Dead *parked* ranks owned
    nothing, so when only they died no row moves."""
    world = view.world
    survivors = tuple(w for w in world if w not in dead)
    detail: dict = {
        "dead_world": list(dead),
        "parked_dead": [w for w in dead if w not in world],
    }
    after = view._replace(
        dead_world=tuple(sorted(set(view.dead_world) | set(dead)))
    )
    if len(survivors) == len(world):
        return Transition("crash_recovery", None, view.bounds, view.bounds,
                          after.sealed(), survivors[0], detail)
    n = len(world)
    dead_rels = [r for r in range(n) if world[r] in dead]
    alive_rels = set(range(n)) - set(dead_rels)
    own = {w: IntervalSet.from_bounds(b) for w, b in zip(world, view.bounds)}
    replays = []
    adopted = replayed = 0
    for dr in dead_rels:
        holder = world[holder_for(dr, n, replication, alive_rels)]
        rows = own[world[dr]]
        own[holder] = own[holder] | rows
        replays.append((world[dr], holder))
        adopted += len(rows)
        # row-installs of the replay, derived from the shared bounds
        # (the checkpoint-freshness invariant), so every rank counts
        # the same whether or not it holds the replica
        replayed += sum(len(rows.clip(0, n_rows - 1))
                        for n_rows in array_rows.values())
    new_bounds = even_by_weight(loop_size, len(survivors), view.row_weights)
    after = after._replace(
        world=survivors, bounds=new_bounds,
        loads=np.ones(len(survivors), dtype=int), mode=MODE_NORMAL,
    ).sealed()
    detail.update({
        "holders": dict(replays),
        "adopted_rows": adopted,
        "replayed_installs": replayed,
    })
    return Transition(
        "crash_recovery", survivors,
        tuple(own[w] or None for w in survivors), new_bounds, after,
        survivors[0], detail, tuple(replays),
    )
