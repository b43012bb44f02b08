"""Figure 6 — node removal (paper Section 5.3).

Red/Black SOR (low computation/communication ratio) on the Ultra-Sparc
cluster at 8/16/32 nodes, 1024x1024 arrays.  One node receives 1, 2 or
3 competing processes; we measure the average phase-cycle time after
redistribution when

* the loaded node stays in the computation (*k CP* series), vs.
* the loaded node is physically removed (*Drop*).

Paper shape: dropping is always worse on 8 nodes, moderately better on
16 (2/7/8% for 1/2/3 CPs), and significantly better on 32 (4/14/25%) —
the benefit of removal grows as the computation/communication ratio
shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence


from ..apps import SORConfig, run_program, sor_program
from ..config import RuntimeSpec, ultrasparc_cluster
from ..simcluster import Cluster, single_competitor
from .harness import bench_scale, scaled, scaled_spec, steady_state_cycle_time
from .report import format_table

__all__ = ["Figure6Cell", "run_figure6", "format_figure6"]


@dataclass(frozen=True)
class Figure6Cell:
    n_nodes: int
    n_cp: int
    keep_cycle_time: float   # avg cycle time, loaded node kept
    drop_cycle_time: float   # avg cycle time, loaded node removed
    dropped: bool            # did the forced-drop run actually drop

    @property
    def drop_gain(self) -> float:
        """Relative improvement of dropping (positive = drop wins)."""
        return 1.0 - self.drop_cycle_time / self.keep_cycle_time


def _run(n_nodes: int, n_cp: int, *, force: str, scale: float, seed: int,
         iters: int):
    cfg = SORConfig(n=scaled(1024, scale, 64), iters=iters, materialized=False)
    base = RuntimeSpec(allow_removal=(force == "drop"))
    if force == "drop":
        # evaluate the drop branch unconditionally: any finite predicted
        # time beats the measured one under a tiny margin
        base = replace(base, drop_margin=1e-9, post_redist_period=5)
    spec = scaled_spec(base, scale)
    return run_program(
        Cluster(ultrasparc_cluster(n_nodes, seed=seed)), sor_program, cfg,
        spec=spec,
        load_script=single_competitor(0, start_cycle=10, count=n_cp),
    )


def run_figure6(
    *,
    nodes: Sequence[int] = (8, 16, 32),
    cps: Sequence[int] = (1, 2, 3),
    scale: Optional[float] = None,
    seed: int = 0,
    iters: int = 250,
) -> list[Figure6Cell]:
    scale = bench_scale() if scale is None else scale
    iters = scaled(iters, scale, 60)
    cells = []
    for n in nodes:
        for cp in cps:
            keep = _run(n, cp, force="keep", scale=scale, seed=seed, iters=iters)
            drop = _run(n, cp, force="drop", scale=scale, seed=seed, iters=iters)
            cells.append(Figure6Cell(
                n_nodes=n,
                n_cp=cp,
                keep_cycle_time=steady_state_cycle_time(keep),
                drop_cycle_time=steady_state_cycle_time(drop),
                dropped=any(ev.kind == "drop" for ev in drop.events),
            ))
    return cells


def format_figure6(cells: Sequence[Figure6Cell]) -> str:
    return format_table(
        ["nodes", "CPs", "keep cycle(ms)", "drop cycle(ms)", "drop gain(%)",
         "dropped"],
        [
            (c.n_nodes, c.n_cp, c.keep_cycle_time * 1e3,
             c.drop_cycle_time * 1e3, c.drop_gain * 100, c.dropped)
            for c in cells
        ],
        title="Figure 6 — SOR average cycle time: keep loaded node vs drop it",
    )
