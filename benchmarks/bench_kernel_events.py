"""Kernel event-throughput bench (dynkern).

Measures raw DES engine throughput (events/sec) over three workloads:

* ``churn`` — the watchdog re-arm pattern straight on the kernel API:
  per pump, every tick cancels the previous far-future watchdogs and
  arms fresh ones.  Every armed watchdog becomes a heap tombstone, so
  the reference engine's heap grows to pumps x ticks x watchdogs
  entries (20M+ at the 256 cell) while the calendar engine's
  compaction keeps it bounded — this is the O(log dead) vs O(1)
  cancel cost isolated from everything else, and the workload whose
  256-pump cell carries the dynkern >=5x acceptance gate.  The cell
  parameters are identical in smoke and full runs (only the grid
  shrinks), so ``check_regression.py`` can compare shared
  cells.  Budget note: the 256 cell spends minutes in the *reference*
  engine — that wall clock is the measurement.
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
  removes the node at cycle 12 (at the 8 cycles this cell used to run
  it ended before the drop).  The 1024 cell takes minutes and runs on
  the calendar engine only; it is a measurement, not a gate.

Each cell runs on both engines — ``calendar`` (the two-lane scheduler
in ``simcluster/kernel.py``) and ``reference`` (the original
single-heap loop preserved verbatim in
``simcluster/kernel_reference.py``) — selected via ``DYNMPI_KERNEL``.
Both engines must execute the identical event sequence, so each cell
asserts equal ``n_events`` before any throughput number counts; the
cell's ``speedup`` is the calendar/reference events-per-second ratio
on the same host, which is what ``check_regression.py`` gates
(machine-independent, same idiom as its ``plan_scaling`` row).

``DYNMPI_KERNEL_SMOKE=1`` restricts the grid to small cells and writes
``BENCH_kernel_events_smoke.json`` (instead of the checked-in
``BENCH_kernel_events.json`` full-grid baseline).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional

from repro.config import ClusterSpec, NetworkSpec, NodeSpec
from repro.obs.scenario import RemovalScenario, run_removal
from repro.simcluster import Cluster, Compute, Sleep
from repro.simcluster.kernel import make_simulator
from repro.mpi import run_spmd

SMOKE = os.environ.get("DYNMPI_KERNEL_SMOKE", "") not in ("", "0")

CHURN_GRID = (16,) if SMOKE else (16, 64, 256)
STORM_GRID = (16, 64) if SMOKE else (16, 64, 256, 1024)
REMOVAL_GRID = (16,) if SMOKE else (16, 64, 256, 1024)
#: rank count above which the reference engine is skipped for the
#: removal workload (minutes of wall clock for a known-equal sequence;
#: the equivalence suite already covers both engines at small scale)
REMOVAL_REF_LIMIT = 256
#: cycles per removal run: enough to pass the drop decision at cycle 12
REMOVAL_ITERS = 16

#: churn cell shape — fixed across smoke and full so the regression
#: gate compares like with like.  ticks=5000 is what makes the
#: reference heap deep (pumps x ticks x watchdogs tombstones): the
#: log-factor being gated only shows at depth
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

#: engines under test, selected through DYNMPI_KERNEL
ENGINES = ("reference", "calendar")


@dataclass
class KernelCell:
    workload: str
    n_nodes: int
    engine: str
    events: int
    wall_s: float

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else float("inf")


def _noop() -> None:
    return None


def _churn_once(n_pumps: int) -> tuple[int, float]:
    sim = make_simulator()  # honors DYNMPI_KERNEL
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


def _run_engine(engine: Optional[str], fn):
    """Run ``fn()`` with DYNMPI_KERNEL pinned to ``engine``."""
    prev = os.environ.get("DYNMPI_KERNEL")
    try:
        if engine is None:
            os.environ.pop("DYNMPI_KERNEL", None)
        else:
            os.environ["DYNMPI_KERNEL"] = engine
        return fn()
    finally:
        if prev is None:
            os.environ.pop("DYNMPI_KERNEL", None)
        else:
            os.environ["DYNMPI_KERNEL"] = prev


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


def _measure(workload: str, n_nodes: int, once) -> list[KernelCell]:
    cells = []
    for engine in ENGINES:
        if (workload == "removal" and engine == "reference"
                and n_nodes > REMOVAL_REF_LIMIT):
            continue  # skipped: reported as a missing reference row
        events, wall = _run_engine(engine, lambda: once(n_nodes))
        cells.append(KernelCell(workload, n_nodes, engine, events, wall))
    by_engine = {c.engine: c.events for c in cells}
    if len(by_engine) == 2:
        assert by_engine["calendar"] == by_engine["reference"], (
            workload, n_nodes, by_engine)
    return cells


def _format(cells: list[KernelCell]) -> str:
    head = (f"{'workload':>8} {'n_nodes':>7} {'engine':>9} "
            f"{'events':>10} {'wall_s':>9} {'events/s':>11} {'speedup':>8}")
    lines = ["kernel event throughput (speedup = calendar/reference "
             "events-per-sec on this host)", head, "-" * len(head)]
    ref = {(c.workload, c.n_nodes): c.events_per_sec
           for c in cells if c.engine == "reference"}
    for c in cells:
        base = ref.get((c.workload, c.n_nodes))
        speedup = (f"{c.events_per_sec / base:>7.1f}x"
                   if base and c.engine == "calendar" else f"{'-':>8}")
        lines.append(
            f"{c.workload:>8} {c.n_nodes:>7} {c.engine:>9} "
            f"{c.events:>10} {c.wall_s:>9.3f} {c.events_per_sec:>11.0f} "
            f"{speedup}"
        )
    return "\n".join(lines)


def test_kernel_events(record_table):
    cells: list[KernelCell] = []
    for n in CHURN_GRID:
        cells.extend(_measure("churn", n, _churn_once))
    for n in STORM_GRID:
        cells.extend(_measure("storm", n, _storm_once))
    for n in REMOVAL_GRID:
        cells.extend(_measure("removal", n, _removal_once))

    data = [
        {**c.__dict__, "events_per_sec": c.events_per_sec} for c in cells
    ]
    name = "kernel_events_smoke" if SMOKE else "kernel_events"
    record_table(name, _format(cells), data=data)

    by_cell = {(c.workload, c.n_nodes, c.engine): c for c in cells}
    for (workload, n_nodes, engine), c in by_cell.items():
        if engine != "calendar":
            continue
        ref = by_cell.get((workload, n_nodes, "reference"))
        if ref is not None:
            # loose in-run sanity (small cells jitter on a busy host);
            # the real floor is check_regression.py's ratio gate
            assert c.events_per_sec > 0.7 * ref.events_per_sec, (
                workload, n_nodes)
    if not SMOKE:
        # the dynkern acceptance bar: >=5x at the 256-pump churn cell
        # (tombstone cancel cost isolated — where the engine rebuild
        # lives).  The 1024-rank removal cell has no wall-clock bar: it
        # is minutes on the full recipe (see docs/PERFORMANCE.md)
        churn256 = by_cell[("churn", 256, "calendar")]
        ref256 = by_cell[("churn", 256, "reference")]
        assert churn256.events_per_sec >= 5.0 * ref256.events_per_sec, (
            churn256.events_per_sec, ref256.events_per_sec)
