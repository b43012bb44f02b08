"""Micro-benchmarks of the substrate itself (classic pytest-benchmark
timing): event-loop throughput, collective latency, redistribution
speed, and the comm-model fit.

These are the knobs the figure benches stand on; regressions here blow
up every experiment's wall time.
"""

import numpy as np
import pytest

from repro.config import ClusterSpec, NodeSpec, pentium_cluster
from repro.core import measure_comm_model
from repro.core.distribution import BlockDistribution, shares_to_blocks
from repro.dmem import ProjectedArray
from repro.mpi import Group, run_spmd
from repro.mpi import collectives as coll
from repro.simcluster import Cluster, Compute, Simulator, Sleep


def test_kernel_event_throughput(benchmark):
    """Pure event-loop dispatch rate."""

    def run():
        sim = Simulator()

        def ticker():
            for _ in range(20000):
                yield Sleep(0.001)

        sim.spawn(ticker(), name="t")
        sim.run()
        return sim.n_events

    events = benchmark(run)
    assert events >= 20000


def test_rr_scheduling_throughput(benchmark):
    """Round-robin slicing under contention."""

    def run():
        cluster = Cluster(ClusterSpec(n_nodes=1, node=NodeSpec(speed=1e8)))
        node = cluster.nodes[0]
        node.start_competing()
        node.start_competing()

        def worker():
            for _ in range(200):
                yield Compute(1e5)

        p = cluster.sim.spawn(worker(), name="w", node=node)
        cluster.sim.run_all([p])
        return cluster.sim.n_events

    benchmark(run)


def test_allgather_dissemination_latency(benchmark):
    """Simulated latency of the runtime's per-cycle load exchange."""

    def run():
        cluster = Cluster(pentium_cluster(16))
        group = Group(list(range(16)))

        def prog(ep):
            for _ in range(10):
                yield from coll.allgather_dissemination(ep, group, ep.rank)

        run_spmd(cluster, prog)
        return cluster.sim.now / 10

    per_allgather = benchmark(run)
    assert per_allgather < 0.005  # < 5 ms simulated at 16 nodes


def test_redistribution_throughput(benchmark):
    """Rows moved per real second through pack/neighbor_alltoallv/unpack."""
    from repro.core import DynMPIJob, NearestNeighbor, AccessMode

    def run():
        from repro.config import RuntimeSpec
        from repro.simcluster import CycleTrigger, LoadScript

        cluster = Cluster(pentium_cluster(4))
        cluster.install_load_script(LoadScript(cycle_triggers=[
            CycleTrigger(cycle=2, node=0, action="start", count=2)
        ]))
        job = DynMPIJob(cluster, RuntimeSpec(
            grace_period=2, post_redist_period=3, allow_removal=False,
            daemon_interval=0.01,
        ))

        def prog(ctx):
            A = ctx.register_dense("A", (2048, 512), materialized=False)
            ctx.init_phase(1, 2048, NearestNeighbor(row_nbytes=4096))
            ctx.add_array_access(1, "A", AccessMode.READWRITE, -1, 1)
            ctx.commit()
            work = np.full(1, 1e5)
            for _ in range(30):
                yield from ctx.begin_cycle()
                if ctx.participating():
                    yield from ctx.compute(
                        1, lambda s, e: np.full(e - s + 1, 2e3)
                    )
                yield from ctx.end_cycle()

        job.launch(prog)
        assert any(ev.kind == "redistribute" for ev in job.events)
        return job

    benchmark(run)


def test_comm_model_fit_speed(benchmark):
    """Micro-benchmark fitting (ping-pong sweeps) stays cheap."""
    spec = pentium_cluster(2)
    model = benchmark(lambda: measure_comm_model(spec, reps=4))
    assert model.cpu_byte_s > 0


def test_shares_to_blocks_speed(benchmark):
    weights = np.random.default_rng(0).random(100_000) + 0.1
    shares = [0.3, 0.2, 0.25, 0.25]
    dist = benchmark(lambda: shares_to_blocks(100_000, shares, weights))
    assert isinstance(dist, BlockDistribution)


def test_projected_array_pack_speed(benchmark):
    arr = ProjectedArray("a", (4096, 512), materialized=True)
    arr.hold(range(1024))

    def run():
        payload, nbytes = arr.pack(list(range(1024)))
        return nbytes

    nbytes = benchmark(run)
    assert nbytes == 1024 * arr.row_nbytes
