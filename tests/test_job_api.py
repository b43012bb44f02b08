"""Tests for the DynMPIJob surface: launch semantics, the measured
comm model path, shared groups, and event bookkeeping."""

import gc
import weakref

import numpy as np
import pytest

from repro.config import ClusterSpec, NetworkSpec, NodeSpec, RuntimeSpec
from repro.core import AccessMode, DynMPIJob, NearestNeighbor
from repro.errors import MPIError, SimulationError
from repro.simcluster import Cluster


def make_cluster(n=2):
    return Cluster(ClusterSpec(
        n_nodes=n,
        node=NodeSpec(speed=1e8),
        network=NetworkSpec(latency=75e-6, bandwidth=12.5e6),
    ))


def trivial_program(ctx):
    ctx.register_dense("A", (16, 2))
    ctx.init_phase(1, 16, NearestNeighbor(row_nbytes=16))
    ctx.add_array_access(1, "A", AccessMode.WRITE)
    ctx.commit()
    for _ in range(3):
        yield from ctx.begin_cycle()
        if ctx.participating():
            yield from ctx.compute(1, lambda s, e: np.full(e - s + 1, 100.0))
        yield from ctx.end_cycle()
    return ctx.world_rank


def test_launch_returns_per_rank_results():
    job = DynMPIJob(make_cluster(3))
    assert job.launch(trivial_program) == [0, 1, 2]


def test_dropped_job_frees_its_arrays_without_a_gc_pass():
    """``ctx.job`` is a weak back-reference, so job -> contexts ->
    arrays is acyclic: dropping a finished job releases every rank's
    arrays by reference counting (held strongly both ways they waited
    for the next full collection, and a program running many jobs in
    a row peaked at two live data sets or one by luck)."""
    gc.collect()
    gc.disable()
    try:
        job = DynMPIJob(make_cluster(2))
        job.launch(trivial_program)
        arrays = [weakref.ref(ctx.arrays["A"]) for ctx in job.contexts]
        assert all(ctx.job is job for ctx in job.contexts)
        del job
        assert [ref() for ref in arrays] == [None, None]
    finally:
        gc.enable()


def test_double_launch_rejected():
    job = DynMPIJob(make_cluster(2))
    job.launch(trivial_program)
    with pytest.raises(SimulationError):
        job.launch(trivial_program)


def test_non_generator_program_rejected():
    # the launcher's one typed error, as for a plain run_spmd program
    job = DynMPIJob(make_cluster(1))
    with pytest.raises(MPIError, match="generator function"):
        job.launch(lambda ctx: 42)


def test_group_for_is_shared_and_cached():
    job = DynMPIJob(make_cluster(3))
    g1 = job.group_for((0, 2))
    g2 = job.group_for((0, 2))
    g3 = job.group_for((0, 1, 2))
    assert g1 is g2
    assert g1 is not g3


def test_contexts_exposed_after_launch():
    job = DynMPIJob(make_cluster(2))
    job.launch(trivial_program)
    assert len(job.contexts) == 2
    for rank, ctx in enumerate(job.contexts):
        assert ctx.world_rank == rank
        assert len(ctx.cycle_times) == 3
        assert len(ctx.cycle_stamps) == 3
        for (b, e) in ctx.cycle_stamps:
            assert e >= b


def test_ps_daemons_started_and_monitoring():
    # sample far faster than the run's few-ms duration
    job = DynMPIJob(make_cluster(2), RuntimeSpec(daemon_interval=0.0002))
    job.launch(trivial_program)
    # each node's daemon saw its app (load >= 1 while running)
    for node_id in range(2):
        hist = job.ps.history(node_id)
        assert hist, "daemon never sampled"


def test_custom_mem_model_used():
    from repro.dmem import MemCostModel

    model = MemCostModel(work_per_byte_copied=123.0)
    job = DynMPIJob(make_cluster(2), mem_model=model)
    assert job.mem_model.work_per_byte_copied == 123.0
