"""Plan-build + pack scaling: interval plane vs the set oracle.

Times one full redistribution *plan derivation* (needed map + the
pairwise send rule) and one whole-block *pack* for the old per-row
implementation (``tests/oracles/row_sets.py``, kept verbatim) against the
interval plane (:mod:`repro.core.redistribute` + slab-backed
:class:`~repro.dmem.ProjectedArray`) over the grid

    n    in {2048, 8192, 16384}   (global rows)
    ranks in {4, 16, 64}

The old path walks rows — O(rows·ranks·arrays) — while the interval
path walks spans — O(ranks²·arrays·phases) — so the speedup must grow
with both axes; the acceptance bar is >= 10x at n=16384 / 64 ranks.

``DYNMPI_PLAN_SMOKE=1`` restricts the grid to its smallest cell and
writes ``BENCH_plan_scaling_smoke.json`` (instead of the checked-in
full-grid ``BENCH_plan_scaling.json``, which serves as the regression
baseline for ``check_regression.py`` / the CI perf-smoke job).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from repro.analysis.plancheck import accesses_to_phases
from repro.core.drsd import DRSD, AccessMode
from repro.core.intervals import IntervalSet
from repro.core.redistribute import needed_map, plan_sends
from repro.dmem import ProjectedArray
from tests.oracles import row_sets as reference

GRID_N = (2048, 8192, 16384)
GRID_RANKS = (4, 16, 64)
ROW_ELEMS = 64          # 512 B rows: big enough that pack moves real data
REPS = 3                # take the best of REPS timings per cell

SMOKE = os.environ.get("DYNMPI_PLAN_SMOKE", "") not in ("", "0")


@dataclass
class PlanCell:
    n: int
    ranks: int
    old_plan_s: float
    new_plan_s: float
    old_pack_s: float
    new_pack_s: float
    rows_sent: int

    @property
    def speedup(self) -> float:
        return (self.old_plan_s + self.old_pack_s) / (
            self.new_plan_s + self.new_pack_s)


def _block_edges(n: int, weights) -> list:
    shares = np.asarray(weights, dtype=float)
    shares = shares / shares.sum()
    edges = np.zeros(len(shares) + 1, dtype=int)
    edges[1:] = np.cumsum(np.round(shares * n)).astype(int)
    edges[-1] = n
    return [
        None if edges[i] == edges[i + 1] else (int(edges[i]), int(edges[i + 1] - 1))
        for i in range(len(shares))
    ]


def _transition(n: int, ranks: int):
    """An even old split moving to a skewed one (what a load spike
    produces), plus the two-array halo/read phase set."""
    old_bounds = tuple(_block_edges(n, np.ones(ranks)))
    new_bounds = tuple(_block_edges(n, np.linspace(1.0, 2.0, ranks)))
    accesses = [
        DRSD("A", AccessMode.READWRITE, lo_off=-1, hi_off=1),
        DRSD("B", AccessMode.READ, lo_off=0, hi_off=0),
    ]
    phases = accesses_to_phases(accesses)
    array_rows = {"A": n, "B": n}
    return old_bounds, new_bounds, phases, array_rows


def _plan_old(old_bounds, new_bounds, phases, array_rows):
    needed = reference.needed_map_sets(phases, new_bounds, array_rows)
    return reference.plan_sends_sets(old_bounds, needed, list(array_rows))


def _plan_new(old_bounds, new_bounds, phases, array_rows):
    needed = needed_map(phases, new_bounds, array_rows)
    return plan_sends(old_bounds, needed, list(array_rows))


def _best_of(fn, reps=REPS):
    best, result = float("inf"), None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _measure_cell(n: int, ranks: int) -> PlanCell:
    old_bounds, new_bounds, phases, array_rows = _transition(n, ranks)
    old_plan_s, old_sends = _best_of(
        lambda: _plan_old(old_bounds, new_bounds, phases, array_rows))
    new_plan_s, new_sends = _best_of(
        lambda: _plan_new(old_bounds, new_bounds, phases, array_rows))

    # both derivations must agree row for row before timing counts
    assert set(old_sends) == set(new_sends)
    rows_sent = 0
    for key, entry in old_sends.items():
        for name, rows in entry.items():
            assert new_sends[key][name].to_rows() == rows, (key, name)
            rows_sent += len(rows)

    # pack rank 0's whole old block, both layouts
    own = IntervalSet.from_bounds(old_bounds[0])
    slab = ProjectedArray("slab", (n, ROW_ELEMS))
    slab.hold(own)
    rowdict = reference.RowDictStore(n, ROW_ELEMS)
    rowdict.hold(own.to_rows())
    old_pack_s, (pay_old, _) = _best_of(lambda: rowdict.pack(own.to_rows()))
    new_pack_s, (pay_new, _) = _best_of(lambda: slab.pack(own))
    assert pay_new.tobytes() == pay_old.tobytes()

    return PlanCell(n, ranks, old_plan_s, new_plan_s,
                    old_pack_s, new_pack_s, rows_sent)


def _format(cells) -> str:
    head = (f"{'n':>6} {'ranks':>5} {'old plan':>10} {'new plan':>10} "
            f"{'old pack':>10} {'new pack':>10} {'speedup':>8}")
    lines = ["plan-build + pack scaling (seconds, best of "
             f"{REPS}; speedup = old/new total)", head, "-" * len(head)]
    for c in cells:
        lines.append(
            f"{c.n:>6} {c.ranks:>5} {c.old_plan_s:>10.6f} "
            f"{c.new_plan_s:>10.6f} {c.old_pack_s:>10.6f} "
            f"{c.new_pack_s:>10.6f} {c.speedup:>7.1f}x"
        )
    return "\n".join(lines)


def test_plan_scaling(record_table):
    grid = [(GRID_N[0], GRID_RANKS[0])] if SMOKE else [
        (n, r) for n in GRID_N for r in GRID_RANKS
    ]
    cells = [_measure_cell(n, r) for n, r in grid]
    data = [
        {**c.__dict__, "speedup": c.speedup} for c in cells
    ]
    name = "plan_scaling_smoke" if SMOKE else "plan_scaling"
    record_table(name, _format(cells), data=data)
    for c in cells:
        assert c.speedup > 1.0, (c.n, c.ranks, c.speedup)
    if not SMOKE:
        top = cells[-1]
        assert top.n == 16384 and top.ranks == 64
        assert top.speedup >= 10.0, top.speedup
