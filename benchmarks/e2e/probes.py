"""Layer probes: one layer's public functions, timed in isolation.

Each probe loops over calls into a single layer and reports a rate or
a per-call host time, best of ``REPS``.  They localize a change the
workloads show only in aggregate: a kernel change should move the
kernel probes and ``removal-256``, not ``dmem.probe_pack_mb_per_s``
(README.md lists each probe's home workload).
Sizes are fixed; nothing here takes a seed, because no probe draws a
random input the layer's cost depends on.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis.plancheck import accesses_to_phases
from repro.apps.kernels import jacobi_row_update
from repro.config import ClusterSpec, NodeSpec, pentium_cluster
from repro.core import (
    DRSD,
    AccessMode,
    CommCostModel,
    IntervalSet,
    NearestNeighbor,
    needed_map,
    successive_balance,
)
from repro.core.redistribute import plan_sends
from repro.dmem import ProjectedArray
from repro.mpi import Group, make_comm, run_spmd
from repro.mpi import collectives as coll
from repro.mpi.rma import Window
from repro.simcluster import Cluster, Compute, Simulator, Sleep

REPS = 3


def _best(fn) -> tuple[float, object]:
    """(best host seconds of REPS calls, last result)."""
    best, result = float("inf"), None
    for _ in range(REPS):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _quiet(n_nodes: int) -> Cluster:
    return Cluster(ClusterSpec(n_nodes=n_nodes, observe=False, sanitize=False))


def probe_dispatch() -> tuple:
    """Event-loop dispatch: one process, 20 000 ``Sleep`` ticks."""
    def run() -> int:
        sim = Simulator()

        def ticker():
            for _ in range(20_000):
                yield Sleep(0.001)

        sim.spawn(ticker(), name="t")
        sim.run()
        return sim.n_events

    wall, events = _best(run)
    return (events / wall,)


def probe_cancel() -> tuple:
    """Schedule/cancel churn: 16 pumps re-arming 16 far-future
    watchdogs per tick (the heartbeat/tombstone pattern)."""
    pumps, ticks, watchdogs = 16, 1_000, 16

    def run() -> int:
        sim = Simulator()
        armed: list = [()] * pumps

        def make_pump(i: int):
            remaining = [ticks]

            def tick() -> None:
                for timer in armed[i]:
                    timer.cancel()
                armed[i] = [sim.schedule(1e6, _noop) for _ in range(watchdogs)]
                remaining[0] -= 1
                if remaining[0]:
                    sim.schedule(1e-4, tick)

            return tick

        for i in range(pumps):
            sim.schedule(1e-4 * i / pumps, make_pump(i))
        sim.run(until=1.0)
        return pumps * ticks * watchdogs

    wall, armed_total = _best(run)
    return (armed_total / wall,)


def _noop() -> None:
    return None


def probe_cpu() -> tuple:
    """Round-robin slicing: one worker against two competitors."""
    def run() -> int:
        cluster = Cluster(ClusterSpec(n_nodes=1, node=NodeSpec(speed=1e8),
                                      observe=False, sanitize=False))
        node = cluster.nodes[0]
        node.start_competing()
        node.start_competing()

        def worker():
            for _ in range(10_000):
                yield Compute(1e5)

        proc = cluster.sim.spawn(worker(), name="w", node=node)
        cluster.sim.run_all([proc])
        return cluster.sim.n_events

    wall, events = _best(run)
    return (events / wall,)


def probe_network() -> tuple:
    """Per-NIC serialization: 20 000 messages over a 16-node switch."""
    n_msgs, n_nodes = 20_000, 16

    def run() -> int:
        cluster = _quiet(n_nodes)
        net = cluster.network
        for i in range(n_msgs):
            src = i % n_nodes
            hop = 1 + (i // n_nodes) % (n_nodes - 1)
            net.transmit(src, (src + hop) % n_nodes, 1024, _noop)
        cluster.sim.run()
        return net.n_messages

    wall, sent = _best(run)
    return (sent / wall,)


def probe_sendrecv() -> tuple:
    """p2p matching: a 16-rank ring of ``sendrecv``."""
    ranks, rounds = 16, 300

    def program(ep):
        right, left = (ep.rank + 1) % ep.size, (ep.rank - 1) % ep.size
        for _ in range(rounds):
            yield from ep.sendrecv(right, 5, None, left, 5)

    wall, _ = _best(lambda: run_spmd(_quiet(ranks), program))
    return (wall / (ranks * rounds) * 1e6,)


def probe_allgather() -> tuple:
    """The runtime's per-cycle control exchange: dissemination
    allgather over 64 ranks."""
    ranks, rounds = 64, 20

    def run() -> int:
        cluster = Cluster(pentium_cluster(ranks))
        group = Group(list(range(ranks)))

        def program(ep):
            for _ in range(rounds):
                yield from coll.allgather_dissemination(ep, group, ep.rank)

        run_spmd(cluster, program)
        return cluster.sim.n_events

    wall, events = _best(run)
    return wall / rounds * 1e6, events / rounds


def probe_fetch_op() -> tuple:
    """One-sided claims: 15 origins hammer rank 0's loop counter."""
    ranks, ops = 16, 200

    def run() -> int:
        cluster = _quiet(ranks)
        comm = make_comm(cluster)
        win = Window(comm, 1, name="probe")

        def origin(rank: int):
            handle = win.origin(rank)
            yield from handle.lock(0, shared=True)
            for _ in range(ops):
                yield from handle.fetch_and_op(0, 0, 1)
            yield from handle.unlock(0)

        procs = [cluster.sim.spawn(origin(r), name=f"o{r}", node=cluster.nodes[r])
                 for r in range(1, ranks)]
        cluster.sim.run_all(procs)
        return int(win.local(0)[0])

    wall, claimed = _best(run)
    return (wall / claimed * 1e6,)


def probe_balance() -> tuple:
    """The Section 4.3 decision: ``successive_balance`` over 64 ranks,
    four of them loaded."""
    ranks, n_rows = 64, 16_384
    spec = pentium_cluster(ranks)
    model = CommCostModel.from_spec(spec.network, spec.node.speed)
    loads = np.ones(ranks, dtype=int)
    loads[::16] = 3
    avails = spec.node.speed / loads
    patterns = [NearestNeighbor(row_nbytes=n_rows * 8)]
    total_work = n_rows * n_rows * 10.0
    calls = 500

    def run():
        for _ in range(calls):
            successive_balance(total_work, avails, loads, patterns, model, n_rows)

    wall, _ = _best(run)
    return (wall / calls * 1e3,)


def _block_bounds(n: int, weights) -> tuple:
    shares = np.asarray(weights, dtype=float)
    edges = np.zeros(len(shares) + 1, dtype=int)
    edges[1:] = np.cumsum(np.round(shares / shares.sum() * n)).astype(int)
    edges[-1] = n
    return tuple((int(a), int(b - 1)) for a, b in zip(edges, edges[1:]))


def probe_plan() -> tuple:
    """Plan derivation: ``needed_map`` + ``plan_sends`` for an even
    split moving to a skewed one, n=16384 rows over 64 ranks."""
    n, ranks = 16_384, 64
    old_bounds = _block_bounds(n, np.ones(ranks))
    new_bounds = _block_bounds(n, np.linspace(1.0, 2.0, ranks))
    phases = accesses_to_phases([
        DRSD("A", AccessMode.READWRITE, lo_off=-1, hi_off=1),
        DRSD("B", AccessMode.READ, lo_off=0, hi_off=0),
    ])
    array_rows = {"A": n, "B": n}

    calls = 50

    def run():
        for _ in range(calls):
            needed = needed_map(phases, new_bounds, array_rows)
            plan_sends(old_bounds, needed, list(array_rows))

    wall, _ = _best(run)
    return (wall / calls * 1e3,)


def probe_pack() -> tuple:
    """The dense data plane: pack a 16 MiB span out of one
    ``ProjectedArray`` and unpack it into another."""
    rows, elems = 4_096, 512
    span = IntervalSet.from_bounds((0, rows - 1))
    src = ProjectedArray("src", (rows, elems), materialized=True)
    src.hold(span)

    def run() -> int:
        dst = ProjectedArray("dst", (rows, elems), materialized=True)
        payload, nbytes = src.pack(span)
        dst.unpack(span, payload)
        return nbytes

    wall, nbytes = _best(run)
    return (2 * nbytes / wall / 2**20,)


def probe_jacobi() -> tuple:
    """The app kernel: 5-point row updates on 1024-wide rows."""
    grid = np.random.default_rng(0).random((1_026, 1_024))
    sweeps = 10

    def run() -> int:
        for _ in range(sweeps):
            for g in range(1, 1_025):
                jacobi_row_update(grid[g], grid[g - 1], grid[g + 1])
        return sweeps * 1_024

    wall, rows = _best(run)
    return (rows / wall,)


#: the metric names each probe reports, in the order it returns them
PROBES = {
    ("simcluster.kernel.probe_dispatch_per_s",): probe_dispatch,
    ("simcluster.kernel.probe_cancel_per_s",): probe_cancel,
    ("simcluster.cpu.probe_slices_per_s",): probe_cpu,
    ("simcluster.network.probe_transmit_per_s",): probe_network,
    ("mpi.comm.probe_sendrecv_us",): probe_sendrecv,
    ("mpi.collectives.probe_allgather_us",
     "mpi.collectives.probe_allgather_events"): probe_allgather,
    ("mpi.rma.probe_fetch_op_us",): probe_fetch_op,
    ("core.balance.probe_balance_ms",): probe_balance,
    ("core.redistribute.probe_plan_ms",): probe_plan,
    ("dmem.probe_pack_mb_per_s",): probe_pack,
    ("apps.probe_jacobi_rows_per_s",): probe_jacobi,
}


def run_probes() -> dict:
    """``{metric: value}`` over every probe."""
    out: dict = {}
    for metrics, probe in PROBES.items():
        out.update(zip(metrics, probe()))
    return out
