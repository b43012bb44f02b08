"""Figure 5 — multiple redistribution points (paper Section 5.2).

Jacobi on 4 nodes, three equal periods:

* period 1: all nodes dedicated;
* a competing process appears on one node at the period-1/period-2
  boundary;
* it disappears at the period-2/period-3 boundary.

Three policies: **No Redist** (never adapt), **Redist Once** (adapt to
the load's arrival only), **Redist Twice** (also adapt back when it
leaves).  Two period lengths: *Short* (50 cycles) and *Long* (500).

Paper shape: redistributing after period 1 pays off (~17%); the second
redistribution only pays off for the Long run (the Short run's
remaining work cannot amortize the redistribution cost).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence


from ..apps import JacobiConfig, jacobi_program, run_program
from ..config import RuntimeSpec, pentium_cluster
from ..simcluster import Cluster, CycleTrigger, LoadScript
from .harness import bench_scale, scaled, scaled_spec
from .report import format_table

__all__ = ["Figure5Cell", "run_figure5", "format_figure5"]

POLICIES = ("no_redist", "redist_once", "redist_twice")


@dataclass(frozen=True)
class Figure5Cell:
    period_len: int
    policy: str
    total: float
    periods: tuple  # (t_period1, t_period2, t_period3)
    redist_seconds: float
    n_redists: int


def _period_times(result, period: int) -> tuple:
    """Wall time of each third of the run, from the cycle stamps of the
    longest-lived rank."""
    stamps = max(
        (ctx.cycle_stamps for ctx in result.job.contexts),
        key=len,
    )
    edges = [0, period, 2 * period, 3 * period]
    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        chunk = stamps[a:b]
        if chunk:
            out.append(chunk[-1][1] - chunk[0][0])
        else:
            out.append(float("nan"))
    return tuple(out)


def run_figure5(
    *,
    periods: Sequence[int] = (50, 500),
    n_nodes: int = 4,
    scale: Optional[float] = None,
    seed: int = 0,
) -> list[Figure5Cell]:
    scale = bench_scale() if scale is None else scale
    cells = []
    for period in periods:
        p = scaled(period, scale, 20)
        cfg = JacobiConfig(n=scaled(2048, scale, 64), iters=3 * p,
                           materialized=False)
        script_triggers = [
            CycleTrigger(cycle=p, node=0, action="start"),
            CycleTrigger(cycle=2 * p, node=0, action="stop"),
        ]
        for policy in POLICIES:
            spec = scaled_spec(RuntimeSpec(allow_removal=False), scale)
            if policy == "redist_once":
                spec = replace(spec, max_redistributions=1)
            res = run_program(
                Cluster(pentium_cluster(n_nodes, seed=seed)),
                jacobi_program, cfg, spec=spec,
                adaptive=(policy != "no_redist"),
                load_script=LoadScript(cycle_triggers=script_triggers),
            )
            redists = [ev for ev in res.events if ev.kind == "redistribute"]
            cells.append(Figure5Cell(
                period_len=p,
                policy=policy,
                total=res.wall_time,
                periods=_period_times(res, p),
                redist_seconds=sum(ev.duration for ev in redists),
                n_redists=len(redists),
            ))
    return cells


def format_figure5(cells: Sequence[Figure5Cell]) -> str:
    return format_table(
        ["period", "policy", "total(s)", "period1(s)", "period2(s)",
         "period3(s)", "redist(s)", "#redist"],
        [
            (c.period_len, c.policy, c.total, *c.periods,
             c.redist_seconds, c.n_redists)
            for c in cells
        ],
        title="Figure 5 — Jacobi with multiple redistribution points (4 nodes)",
    )
