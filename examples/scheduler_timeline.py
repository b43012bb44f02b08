#!/usr/bin/env python
"""Visualize what a non dedicated node actually does.

Observes a 2-node Jacobi run with a competing process (every observed
run records the scheduler's CPU slices on ``cluster.obs``), then prints
each node's CPU timeline: the application ('r' for rank processes),
competing processes ('c'), and idle time ('.').
Watch node 0's application squeeze into the gaps once the competitor
arrives — and reclaim the CPU after Dyn-MPI shrinks its share.

Run:  python examples/scheduler_timeline.py
"""

from dataclasses import replace

from repro.apps import JacobiConfig, jacobi_program, run_program
from repro.config import RuntimeSpec, pentium_cluster
from repro.simcluster import Cluster, single_competitor


def main() -> None:
    cluster = Cluster(replace(pentium_cluster(2), observe=True))
    cfg = JacobiConfig(n=256, iters=40, materialized=False)
    res = run_program(
        cluster, jacobi_program, cfg,
        spec=RuntimeSpec(allow_removal=False, daemon_interval=0.02),
        adaptive=True,
        load_script=single_competitor(0, start_cycle=10),
    )
    rec = cluster.obs

    total = res.wall_time
    print(f"Jacobi 256x256 on 2 nodes, competitor on node 0 from cycle 10 "
          f"({total:.3f} simulated seconds)\n")
    print("CPU timelines ('r'=application rank, 'c'=competing process, "
          "'.'=idle):\n")
    for node in range(2):
        print(" ", rec.timeline(node, width=100))
    print()
    for ev in res.events:
        print(f"  cycle {ev.cycle}: {ev.kind} "
              f"shares={[round(s, 2) for s in ev.detail.get('shares', [])]}")
    app0 = rec.busy_time(0, "rank")
    cp0 = rec.busy_time(0, "cp")
    print(f"\n  node 0 CPU split: application {app0:.3f}s, "
          f"competitor {cp0:.3f}s, idle {total - app0 - cp0:.3f}s")


if __name__ == "__main__":
    main()
