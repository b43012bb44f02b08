#!/usr/bin/env python
"""Failover: a node crashes mid-run and the job keeps the right answer.

Dyn-MPI's resilience layer (repro.resilience) treats a fail-stop node
crash as an *involuntary* Section 4.4 removal.  Every phase cycle each
rank ships a snapshot of its owned rows to its ring buddy (in-memory
neighbor checkpointing — the projection layout makes the snapshot one
``pack`` per array).  When the crashed node's ``dmpi_ps`` heartbeat
goes stale, the survivors excise it in lockstep: the buddy replays the
dead rank's rows from its checkpoint, and one redistribution rebalances
the survivors.

The proof of correctness is bitwise: the Jacobi grid after a mid-run
crash is *identical* to the grid of an undisturbed run, because the
replayed checkpoint is exactly the state at the failed cycle boundary.

Run:  python examples/failover.py
"""

import numpy as np

from repro.apps import JacobiConfig, jacobi_program, run_program
from repro.config import ClusterSpec, NetworkSpec, NodeSpec, ResilienceSpec, RuntimeSpec
from repro.resilience import node_crash
from repro.simcluster import Cluster

N_NODES = 4
CRASH_NODE = 1
CRASH_CYCLE = 15


def make_cluster():
    return Cluster(ClusterSpec(
        n_nodes=N_NODES,
        node=NodeSpec(speed=1e8),
        network=NetworkSpec(latency=75e-6, bandwidth=12.5e6,
                            cpu_per_byte=0.4, cpu_per_msg=3000.0),
    ))


def run(crash: bool):
    spec = RuntimeSpec(
        grace_period=2, post_redist_period=3,
        allow_removal=True, drop_mode="physical", allow_rejoin=True,
        daemon_interval=0.001,
        resilience=ResilienceSpec(heartbeat_timeout=0.004),
    )
    cfg = JacobiConfig(n=64, iters=60, materialized=True, collect=True, seed=3)
    failure = node_crash(CRASH_NODE, at_cycle=CRASH_CYCLE) if crash else None
    return run_program(make_cluster(), jacobi_program, cfg, spec=spec,
                       failure_script=failure)


def main() -> None:
    clean = run(crash=False)
    crashed = run(crash=True)

    print(f"Jacobi 64x64, 60 iterations on {N_NODES} nodes; node "
          f"{CRASH_NODE} crashes at cycle {CRASH_CYCLE}\n")
    print(f"  crash-free run : total {clean.wall_time:7.3f} s")
    print(f"  crashed run    : total {crashed.wall_time:7.3f} s\n")

    for ev in crashed.events:
        if ev.kind == "crash_recovery":
            d = ev.detail
            print(f"  cycle {ev.cycle:3d}: crash_recovery — dead world ranks "
                  f"{d['dead_world']}, checkpoint holders {d.get('holders')}, "
                  f"{d.get('replayed_installs', 0)} row-installs replayed "
                  f"in {ev.duration * 1e3:.2f} ms")

    ref = clean.per_rank[0]["grid"]
    survivors = [w for w, r in enumerate(crashed.per_rank) if r is not None]
    same = all(np.array_equal(crashed.per_rank[w]["grid"], ref)
               for w in survivors)
    print(f"\n  survivors: ranks {survivors}")
    print("  final grid bitwise-equal to the crash-free run: "
          + ("YES" if same else "NO"))
    if not same:
        raise SystemExit("recovery diverged!")


if __name__ == "__main__":
    main()
