"""Figure 7 — grace period length under sub-10 ms iterations
(paper Section 5.4).

Particle simulation on 8 nodes, 256x256 grid, with Part in {10, 50}
particles per cell in the top half of P0's rows.  Iterations are
shorter than 10 ms, so ``gethrtime`` (not /PROC) must time them, and
its readings absorb context-switch noise on the loaded node.  With a
grace period of 1 cycle there is nothing to min-filter and the
resulting distribution is skewed; with the paper's default of 5 the
filter recovers true iteration times.

Measured: average phase-cycle time after redistribution; paper shape:
GP=5 beats GP=1 by ~13% (Part=10) and ~16% (Part=50).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence


from ..apps import ParticleConfig, particle_program, run_program
from ..config import RuntimeSpec, pentium_cluster
from ..simcluster import Cluster, single_competitor
from .harness import bench_scale, scaled, scaled_spec, steady_state_cycle_time
from .report import format_table

__all__ = ["Figure7Cell", "run_figure7", "format_figure7"]


@dataclass(frozen=True)
class Figure7Cell:
    part: float
    grace_period: int
    cycle_time: float
    estimate_source: str

    @property
    def label(self) -> str:
        return f"Part={self.part:g} GP={self.grace_period}"


def run_figure7(
    *,
    parts: Sequence[float] = (10.0, 50.0),
    grace_periods: Sequence[int] = (1, 5),
    n_nodes: int = 8,
    scale: Optional[float] = None,
    seed: int = 0,
) -> list[Figure7Cell]:
    scale = bench_scale() if scale is None else scale
    cells = []
    for part in parts:
        grid = scaled(256, scale, 32)
        cfg = ParticleConfig(
            rows=grid, cols=grid, steps=scaled(200, scale, 60),
            base_density=1.0, part_top=part, n_nodes_hint=n_nodes,
        )
        for gp in grace_periods:
            spec = scaled_spec(
                RuntimeSpec(grace_period=gp, allow_removal=False), scale
            )
            res = run_program(
                Cluster(pentium_cluster(n_nodes, seed=seed)),
                particle_program, cfg, spec=spec,
                load_script=single_competitor(0, start_cycle=10),
            )
            source = "none"
            for ctx in res.job.contexts:
                if ctx.last_estimate_source != "none":
                    source = ctx.last_estimate_source
                    break
            cells.append(Figure7Cell(
                part=part,
                grace_period=gp,
                cycle_time=steady_state_cycle_time(res),
                estimate_source=source,
            ))
    return cells


def format_figure7(cells: Sequence[Figure7Cell]) -> str:
    rows = []
    by_part: dict = {}
    for c in cells:
        by_part.setdefault(c.part, {})[c.grace_period] = c
    for part, entry in sorted(by_part.items()):
        gps = sorted(entry)
        for gp in gps:
            c = entry[gp]
            base = entry[gps[0]]
            gain = 1.0 - c.cycle_time / base.cycle_time if gp != gps[0] else 0.0
            rows.append((f"{part:g}", gp, c.cycle_time * 1e3,
                         gain * 100, c.estimate_source))
    return format_table(
        ["Part", "GP", "cycle(ms)", "gain vs GP=1(%)", "timer"],
        rows,
        title="Figure 7 — particle simulation, grace period 1 vs 5 (8 nodes)",
    )
