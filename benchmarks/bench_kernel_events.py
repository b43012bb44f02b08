"""Kernel event-throughput bench.

Measures raw DES engine throughput (events/sec) over three workloads:

* ``churn`` — the watchdog re-arm pattern straight on the kernel API:
  per pump, every tick cancels the previous far-future watchdogs and
  arms fresh ones.  Every armed watchdog becomes a heap tombstone
  (pumps x ticks x watchdogs of them, 20M+ at the 256 cell), so this
  is tombstone compaction isolated from everything else: without it
  the heap grows to that size and every push pays its log.  The cell
  parameters are identical in smoke and full runs (only the grid
  shrinks).
* ``storm`` — one rank per node running a ring compute+sendrecv
  exchange, plus per-node timer-churn daemons that schedule and cancel
  far-future timers (the heartbeat/tombstone pattern).  This is a pure
  event-loop stress: zero-delay resumes, slice timers, NIC callbacks,
  signal wakeups and tombstoned cancels in realistic proportions.
* ``removal`` — the canonical Jacobi node-removal scenario
  (:mod:`repro.obs.scenario`) scaled up with the rank count, i.e. the
  whole runtime stack (balancing, redistribution, daemons, resilience).
  One recipe at every size, the one ``benchmarks/e2e`` runs as
  ``removal-256``: 16 cycles, so the run redistributes at cycle 7 *and*
  removes the node at cycle 12.  The 1024 cell takes minutes.

This is a measurement, not a gate: there is one engine, so there is no
same-host ratio to hold, and absolute events/sec is a property of the
runner.  The end-to-end benchmark (``benchmarks/e2e``: ``removal-256``
``wall_s`` and the ``simcluster.kernel.probe_*`` rates) is what watches
this layer across PRs.

``DYNMPI_KERNEL_SMOKE=1`` restricts the grid to small cells and writes
``BENCH_kernel_events_smoke.json`` (instead of the checked-in
``BENCH_kernel_events.json`` full-grid table).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional

from repro.config import ClusterSpec, NetworkSpec, NodeSpec
from repro.obs.scenario import RemovalScenario, run_removal
from repro.simcluster import Cluster, Compute, Simulator, Sleep
from repro.mpi import run_spmd

SMOKE = os.environ.get("DYNMPI_KERNEL_SMOKE", "") not in ("", "0")

CHURN_GRID = (16,) if SMOKE else (16, 64, 256)
STORM_GRID = (16, 64) if SMOKE else (16, 64, 256, 1024)
REMOVAL_GRID = (16,) if SMOKE else (16, 64, 256, 1024)
#: cycles per removal run: enough to pass the drop decision at cycle 12
REMOVAL_ITERS = 16

#: churn cell shape — fixed across smoke and full so shared cells
#: compare like with like.  ticks=5000 is what would make an
#: uncompacted heap deep (pumps x ticks x watchdogs tombstones)
CHURN_TICKS = 5_000
CHURN_WATCHDOGS = 16
CHURN_TICK_DT = 1e-4
CHURN_WATCHDOG_TIMEOUT = 1e6

#: total ring exchanges per storm cell, split across the ranks
STORM_SENDRECVS = 6_000 if SMOKE else 25_000
#: per-round compute in work units (~20 us at the default node speed)
STORM_WORK = 2_000.0
#: timer-churn daemons: beats per node and far-future timers per beat
CHURN_PERIOD = 0.0005
CHURN_TIMERS = 4


@dataclass
class KernelCell:
    workload: str
    n_nodes: int
    events: int
    wall_s: float

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else float("inf")


def _noop() -> None:
    return None


def _churn_once(n_pumps: int) -> tuple[int, float]:
    sim = Simulator()
    watchdogs: list[Optional[list]] = [None] * n_pumps

    def make_pump(i: int):
        remaining = [CHURN_TICKS]

        def fire() -> None:
            return None

        def tick() -> None:
            old = watchdogs[i]
            if old is not None:
                for t in old:
                    t.cancel()
            watchdogs[i] = [sim.schedule(CHURN_WATCHDOG_TIMEOUT, fire)
                            for _ in range(CHURN_WATCHDOGS)]
            remaining[0] -= 1
            if remaining[0]:
                sim.schedule(CHURN_TICK_DT, tick)

        return tick

    # stagger the pumps inside one tick period so their re-arms
    # interleave instead of batching
    for i in range(n_pumps):
        sim.schedule(CHURN_TICK_DT * (i / n_pumps), make_pump(i))
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    return sim.n_events, wall


def _ring_program(ep, rounds: int, work: float):
    n = ep.size
    right = (ep.rank + 1) % n
    left = (ep.rank - 1) % n
    for _ in range(rounds):
        yield Compute(work)
        yield from ep.sendrecv(right, 5, None, left, 5)
    return None


def _churn_daemon(sim, beats: int):
    """Heartbeat-style timer churn: arm far-future timers, cancel them
    a beat later — every armed timer becomes a heap tombstone."""
    for _ in range(beats):
        timers = [sim.schedule(1_000.0, _noop) for _ in range(CHURN_TIMERS)]
        yield Sleep(CHURN_PERIOD)
        for t in timers:
            t.cancel()
    return None


def _storm_once(n_nodes: int) -> tuple[int, float]:
    spec = ClusterSpec(
        n_nodes=n_nodes, node=NodeSpec(), network=NetworkSpec(),
        seed=0, name="storm", observe=False,
    )
    cluster = Cluster(spec)
    rounds = max(8, STORM_SENDRECVS // n_nodes)
    beats = min(rounds, 400)
    for _ in range(n_nodes):
        cluster.sim.spawn(_churn_daemon(cluster.sim, beats),
                          name="churn", daemon=True)
    t0 = time.perf_counter()
    run_spmd(cluster, _ring_program, args=(rounds, STORM_WORK))
    wall = time.perf_counter() - t0
    return cluster.sim.n_events, wall


def _removal_once(n_nodes: int) -> tuple[int, float]:
    scenario = RemovalScenario(
        n_nodes=n_nodes, n=4 * n_nodes, iters=REMOVAL_ITERS, load_cycle=2, n_cp=2,
    )
    t0 = time.perf_counter()
    result, cluster = run_removal(scenario, observe=False)
    wall = time.perf_counter() - t0
    # the cell must measure a removal, not just a redistribution
    assert [ev.kind for ev in result.events] == ["redistribute", "drop"], n_nodes
    return cluster.sim.n_events, wall


def _format(cells: list[KernelCell]) -> str:
    head = (f"{'workload':>8} {'n_nodes':>7} "
            f"{'events':>10} {'wall_s':>9} {'events/s':>11}")
    lines = ["kernel event throughput on this host", head, "-" * len(head)]
    for c in cells:
        lines.append(
            f"{c.workload:>8} {c.n_nodes:>7} "
            f"{c.events:>10} {c.wall_s:>9.3f} {c.events_per_sec:>11.0f}"
        )
    return "\n".join(lines)


def test_kernel_events(record_table):
    cells = [
        KernelCell(workload, n, *once(n))
        for workload, grid, once in (("churn", CHURN_GRID, _churn_once),
                                     ("storm", STORM_GRID, _storm_once),
                                     ("removal", REMOVAL_GRID, _removal_once))
        for n in grid
    ]
    data = [
        {**c.__dict__, "events_per_sec": c.events_per_sec} for c in cells
    ]
    name = "kernel_events_smoke" if SMOKE else "kernel_events"
    record_table(name, _format(cells), data=data)
