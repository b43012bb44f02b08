#!/usr/bin/env python
"""Unbalanced computations: per-iteration timing in action.

The particle simulation's per-row cost depends on how many particles
the row holds, so a plain "equal rows per node" distribution is
unbalanced from the start.  During its grace period Dyn-MPI times each
iteration individually (gethrtime + min-filter, because the iterations
are shorter than /PROC's 10 ms granularity) and splits rows by
*measured work*, not by count — the hot node ends up with fewer rows.

Run:  python examples/unbalanced_particles.py
"""

import numpy as np

from repro.apps import ParticleConfig, particle_program, run_program
from repro.config import RuntimeSpec, pentium_cluster
from repro.simcluster import Cluster, CycleTrigger, LoadScript


def main() -> None:
    cluster = Cluster(pentium_cluster(4))
    cfg = ParticleConfig(
        rows=128, cols=64, steps=80,
        base_density=1.0, hot_rows=32, hot_factor=6.0,
    )
    # a short-lived competitor just to trigger a measurement+redistribution
    script = LoadScript(cycle_triggers=[
        CycleTrigger(cycle=5, node=3, action="start"),
        CycleTrigger(cycle=30, node=3, action="stop"),
    ])
    spec = RuntimeSpec(allow_removal=False, daemon_interval=0.02)
    res = run_program(cluster, particle_program, cfg, spec=spec,
                      adaptive=True, load_script=script)

    print("Particle simulation, 128 rows x 64 cols on 4 nodes; rows 0-31 "
          "start with 6x the particles\n")
    ctx = res.job.contexts[0]
    w = ctx.view.row_weights
    if w is not None:
        print(f"  measured row weights (us): hot rows ~"
              f"{np.mean(w[:32]) * 1e6:.1f}, cold rows ~"
              f"{np.mean(w[64:]) * 1e6:.1f} "
              f"(timer: {ctx.last_estimate_source})")
    print("\n  final row ranges (hot node should hold fewer rows):")
    for rank, (s, e) in enumerate(res.bounds):
        rows = e - s + 1 if e >= s else 0
        marker = "  <- holds the hot region" if s == 0 else ""
        print(f"    rank {rank}: rows {s:3d}..{e:3d} ({rows:3d} rows){marker}")
    for ev in res.events:
        print(f"\n  cycle {ev.cycle}: {ev.kind}, "
              f"shares={np.round(ev.detail.get('shares', []), 3)}")


if __name__ == "__main__":
    main()
