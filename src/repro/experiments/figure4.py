"""Figure 4 — overall results (paper Section 5.1).

Four applications (Jacobi, SOR, CG, particle) on 2/4/8 nodes, three
variants each:

* **dedicated** — no competing processes (the normalization baseline),
* **no adapt**  — one competing process on node 0 at the 10th
  iteration, the program never adapts,
* **Dyn-MPI**   — same load, the runtime adapts.

The paper's shape: Dyn-MPI lands well under no-adapt (up to ~3x) and
within tens of percent of dedicated; the particle run can even beat
dedicated because adaptation fixes its built-in imbalance early.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence


from ..apps import (
    CGConfig,
    JacobiConfig,
    ParticleConfig,
    SORConfig,
    cg_program,
    jacobi_program,
    particle_program,
    run_program,
    sor_program,
)
from ..config import RuntimeSpec, pentium_cluster
from ..simcluster import Cluster, single_competitor
from .harness import bench_scale, scaled, scaled_spec
from .report import format_table

__all__ = ["Figure4Row", "run_figure4", "cg_4node_narrative", "APP_NAMES"]

APP_NAMES = ("jacobi", "sor", "cg", "particle")

#: the paper disables removal for the overall experiment (Section 5.3
#: studies removal separately)
_SPEC = RuntimeSpec(allow_removal=False)


@dataclass(frozen=True)
class Figure4Row:
    app: str
    n_nodes: int
    t_dedicated: float
    t_noadapt: float
    t_dynmpi: float

    @property
    def norm_noadapt(self) -> float:
        return self.t_noadapt / self.t_dedicated

    @property
    def norm_dynmpi(self) -> float:
        return self.t_dynmpi / self.t_dedicated

    @property
    def improvement(self) -> float:
        """no-adapt time over Dyn-MPI time (paper: up to ~3x)."""
        return self.t_noadapt / self.t_dynmpi


def _app_config(app: str, scale: float, n_nodes: int):
    if app == "jacobi":
        return jacobi_program, JacobiConfig(
            n=scaled(2048, scale, 64), iters=scaled(250, scale, 30),
            materialized=False,
        )
    if app == "sor":
        return sor_program, SORConfig(
            n=scaled(2048, scale, 64), iters=scaled(250, scale, 30),
            materialized=False,
        )
    if app == "cg":
        return cg_program, CGConfig(
            n=scaled(14000, scale, 128), iters=scaled(75, scale, 20),
            exact_math=False,
        )
    if app == "particle":
        return particle_program, ParticleConfig(
            rows=scaled(256, scale, 32), cols=scaled(256, scale, 32),
            steps=scaled(200, scale, 30),
            base_density=1.5,
            # "one node had twice as many particles" (node 0's rows)
            hot_factor=2.0, hot_rows=scaled(256, scale, 32) // n_nodes,
        )
    raise ValueError(f"unknown app {app!r}")


def run_figure4(
    *,
    nodes: Sequence[int] = (2, 4, 8),
    apps: Sequence[str] = APP_NAMES,
    scale: Optional[float] = None,
    seed: int = 0,
) -> list[Figure4Row]:
    scale = bench_scale() if scale is None else scale
    rows = []
    for app in apps:
        for n in nodes:
            program, cfg = _app_config(app, scale, n)
            times = {}
            for variant in ("dedicated", "noadapt", "dynmpi"):
                script = (
                    None if variant == "dedicated"
                    else single_competitor(0, start_cycle=10)
                )
                times[variant] = run_program(
                    Cluster(pentium_cluster(n, seed=seed)), program, cfg,
                    spec=scaled_spec(_SPEC, scale),
                    adaptive=(variant == "dynmpi"), load_script=script,
                ).wall_time
            rows.append(Figure4Row(
                app, n, times["dedicated"], times["noadapt"], times["dynmpi"]
            ))
    return rows


def format_figure4(rows: Sequence[Figure4Row]) -> str:
    return format_table(
        ["app", "nodes", "dedicated(s)", "no-adapt(s)", "dyn-mpi(s)",
         "no-adapt/ded", "dyn-mpi/ded", "improvement"],
        [
            (r.app, r.n_nodes, r.t_dedicated, r.t_noadapt, r.t_dynmpi,
             r.norm_noadapt, r.norm_dynmpi, r.improvement)
            for r in rows
        ],
        title="Figure 4 — execution time relative to all-nodes-dedicated",
    )


@dataclass(frozen=True)
class CGNarrative:
    """The Section 5.1 4-node CG walkthrough."""

    t_dedicated: float
    t_noadapt: float
    t_dynmpi: float
    shares: tuple
    redist_seconds: float


def cg_4node_narrative(*, scale: Optional[float] = None, seed: int = 0) -> CGNarrative:
    scale = bench_scale() if scale is None else scale
    program, cfg = _app_config("cg", scale, 4)
    results = {}
    for variant in ("dedicated", "noadapt", "dynmpi"):
        script = None if variant == "dedicated" else single_competitor(0, start_cycle=10)
        results[variant] = run_program(
            Cluster(pentium_cluster(4, seed=seed)), program, cfg,
            spec=scaled_spec(_SPEC, scale),
            adaptive=(variant == "dynmpi"), load_script=script,
        )
    redists = [ev for ev in results["dynmpi"].events if ev.kind == "redistribute"]
    shares = tuple(redists[0].detail["shares"]) if redists else ()
    redist_s = sum(ev.duration for ev in redists)
    return CGNarrative(
        results["dedicated"].wall_time,
        results["noadapt"].wall_time,
        results["dynmpi"].wall_time,
        shares,
        redist_s,
    )
