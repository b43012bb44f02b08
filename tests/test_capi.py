"""Tests for the paper-named DMPI_* facade — including a one-to-one
transliteration of the paper's Figure 2 program."""

import numpy as np
import pytest

from repro.config import ClusterSpec, NetworkSpec, NodeSpec, RuntimeSpec
from repro.core import DynMPIJob
from repro.core.capi import (
    DMPI,
    DMPI_BLOCK,
    DMPI_CYCLIC,
    DMPI_NEAREST_NEIGHBOR,
    DMPI_READ,
    DMPI_WRITE,
)
from repro.errors import RegistrationError
from repro.simcluster import Cluster, CycleTrigger, LoadScript

N = 32
NUM_ITERS = 24


def make_cluster(n=4):
    return Cluster(ClusterSpec(
        n_nodes=n,
        node=NodeSpec(speed=1e8),
        network=NetworkSpec(latency=75e-6, bandwidth=12.5e6,
                            cpu_per_byte=0.01, cpu_per_msg=50.0),
    ))


def figure2_program(ctx, numprocs):
    """The paper's Figure 2, transliterated line for line."""
    dmpi = DMPI(ctx)
    # regular MPI initialization omitted
    dmpi.DMPI_init(numprocs, 1, 2, DMPI_BLOCK)
    A = dmpi.DMPI_register_dense_array("A", 0, N - 1, row_elems=N)
    B = dmpi.DMPI_register_dense_array("B", 0, N - 1, row_elems=N)
    dmpi.DMPI_init_phase(1, 0, N - 1, DMPI_NEAREST_NEIGHBOR, row_nbytes=N * 8)
    dmpi.DMPI_add_array_access(1, "A", DMPI_WRITE, 0, 0)
    dmpi.DMPI_add_array_access(1, "B", DMPI_READ, -1, 1)
    dmpi.DMPI_commit()

    for g in B.held_rows():
        B.row(g)[:] = 1.0

    def work_of(s, e):
        return np.full(e - s + 1, N * 9.0)

    for t in range(NUM_ITERS):
        yield from dmpi.DMPI_begin_cycle()
        start_iter = dmpi.DMPI_get_start_iter()
        end_iter = dmpi.DMPI_get_end_iter()
        if dmpi.DMPI_participating():

            def exec_rows(lo, hi):
                for i in range(lo, hi + 1):
                    A.hold([i])
                    A.row(i)[:] = B.row(i)  # F(B, i, j)

            yield from dmpi.DMPI_compute(1, work_of, exec_rows)
            rel_rank = dmpi.DMPI_get_rel_rank()
            if rel_rank > 0:
                yield from dmpi.DMPI_Send(
                    B.row(start_iter).copy(), rel_rank - 1, tag=9)
            if rel_rank < dmpi.DMPI_get_num_active() - 1:
                data, _ = yield from dmpi.DMPI_Recv(rel_rank + 1, tag=9)
                B.hold([end_iter + 1])
                B.set_row(end_iter + 1, data)
        yield from dmpi.DMPI_end_cycle()
    return (start_iter, end_iter)


def test_figure2_program_runs_and_adapts():
    cluster = make_cluster(4)
    cluster.install_script(LoadScript(cycle_triggers=[
        CycleTrigger(cycle=4, node=0, action="start")
    ]))
    job = DynMPIJob(cluster, RuntimeSpec(
        grace_period=2, post_redist_period=3, allow_removal=False,
        daemon_interval=0.002,
    ))
    results = job.launch(figure2_program, args=(4,))
    assert any(ev.kind == "redistribute" for ev in job.events)
    total = sum(e - s + 1 for (s, e) in results if e >= s)
    assert total == N


def test_dmpi_init_validates():
    cluster = make_cluster(2)
    job = DynMPIJob(cluster)

    def program(ctx):
        dmpi = DMPI(ctx)
        with pytest.raises(RegistrationError):
            dmpi.DMPI_init(99, 1, 1)  # wrong processor count
        with pytest.raises(RegistrationError):
            dmpi.DMPI_init(2, 1, 1, "scatter")  # unknown distribution
        with pytest.raises(RegistrationError):
            dmpi.DMPI_init(2, 1, 1, DMPI_CYCLIC)  # not runtime-supported
        dmpi.DMPI_init(2, 1, 1, DMPI_BLOCK)
        with pytest.raises(RegistrationError):
            dmpi.DMPI_init_phase(1, 0, 9, "gossip")
        yield from ()

    job.launch(program)


def test_dmpi_rel_rank_of_other_world_rank():
    cluster = make_cluster(3)
    job = DynMPIJob(cluster)

    def program(ctx):
        dmpi = DMPI(ctx)
        dmpi.DMPI_init(3, 1, 1)
        dmpi.DMPI_register_dense_array("A", 0, N - 1)
        dmpi.DMPI_init_phase(1, 0, N - 1, DMPI_NEAREST_NEIGHBOR)
        dmpi.DMPI_add_array_access(1, "A", DMPI_WRITE)
        dmpi.DMPI_commit()
        assert dmpi.DMPI_get_rel_rank(0) == 0
        assert dmpi.DMPI_get_rel_rank(2) == 2
        assert dmpi.DMPI_get_num_active() == 3
        yield from ()

    job.launch(program)


def test_dmpi_allreduce_and_sparse_iterator():
    cluster = make_cluster(2)
    job = DynMPIJob(cluster)

    def program(ctx):
        dmpi = DMPI(ctx)
        dmpi.DMPI_init(2, 1, 1)
        S = dmpi.DMPI_register_sparse_array("S", N, N)
        dmpi.DMPI_init_phase(1, 0, N - 1, DMPI_NEAREST_NEIGHBOR)
        dmpi.DMPI_add_array_access(1, "S", DMPI_READ)
        dmpi.DMPI_commit()
        s, e = ctx.my_bounds()
        S.set(s, 0, float(ctx.world_rank + 1))
        total = yield from dmpi.DMPI_Allreduce(ctx.world_rank + 1)
        assert total == 3
        it = dmpi.DMPI_sparse_iterator("S", s)
        assert it.next() == (0, float(ctx.world_rank + 1))

    job.launch(program)
