"""State-machine and error-path tests for the Dyn-MPI runtime that the
scenario tests don't reach directly."""

import numpy as np
import pytest

from repro.config import ClusterSpec, NetworkSpec, NodeSpec, RuntimeSpec
from repro.core import AccessMode, DynMPIJob, NearestNeighbor
from repro.errors import RegistrationError
from repro.simcluster import Cluster, CycleTrigger, LoadScript

SPEED = 1e8
N_ROWS = 48


def make_cluster(n=4):
    return Cluster(ClusterSpec(
        n_nodes=n,
        node=NodeSpec(speed=SPEED),
        network=NetworkSpec(latency=75e-6, bandwidth=12.5e6,
                            cpu_per_byte=0.01, cpu_per_msg=50.0),
    ))


def base_program(ctx, n_cycles, hooks=None):
    ctx.register_dense("A", (N_ROWS, 4))
    ctx.init_phase(1, N_ROWS, NearestNeighbor(row_nbytes=32))
    ctx.add_array_access(1, "A", AccessMode.READWRITE, -1, 1)
    ctx.commit()

    def work_of(s, e):
        return np.full(e - s + 1, SPEED * 5e-4 / N_ROWS * 4)

    for t in range(n_cycles):
        yield from ctx.begin_cycle()
        if hooks:
            hooks(ctx, t)
        if ctx.participating():
            yield from ctx.compute(1, work_of)
        yield from ctx.end_cycle()
    return ctx.my_bounds()


def test_grace_restarts_on_second_load_change():
    """A second load change mid-grace restarts the measurement window,
    so the redistribution uses loads/timings from the final state."""
    cluster = make_cluster(4)
    cluster.install_script(LoadScript(cycle_triggers=[
        CycleTrigger(cycle=4, node=0, action="start"),
        CycleTrigger(cycle=7, node=0, action="start"),  # mid-grace
    ]))
    job = DynMPIJob(cluster, RuntimeSpec(
        grace_period=8, post_redist_period=3, allow_removal=False,
        daemon_interval=0.0005,
    ))
    job.launch(base_program, args=(60,))
    redists = [ev for ev in job.events if ev.kind == "redistribute"]
    assert redists
    # the (single) redistribution saw both competing processes
    assert redists[0].detail["loads"][0] == 3


def test_compute_rows_outside_bounds_rejected():
    cluster = make_cluster(2)
    job = DynMPIJob(cluster)

    def program(ctx):
        ctx.register_dense("A", (N_ROWS, 4))
        ctx.init_phase(1, N_ROWS, NearestNeighbor(row_nbytes=32))
        ctx.add_array_access(1, "A", AccessMode.WRITE)
        ctx.commit()
        yield from ctx.begin_cycle()
        s, e = ctx.my_bounds()
        with pytest.raises(RegistrationError):
            yield from ctx.compute(
                1, lambda a, b: np.ones(b - a + 1), rows=(s, e + 5)
            )
        with pytest.raises(RegistrationError):
            yield from ctx.compute(99, lambda a, b: np.ones(b - a + 1))
        with pytest.raises(RegistrationError):
            # wrong work vector shape
            yield from ctx.compute(1, lambda a, b: np.ones(2 * (b - a + 1)))
        yield from ctx.end_cycle()

    job.launch(program)


def test_compute_with_empty_subrange_is_noop():
    cluster = make_cluster(2)
    job = DynMPIJob(cluster)

    def program(ctx):
        ctx.register_dense("A", (N_ROWS, 4))
        ctx.init_phase(1, N_ROWS, NearestNeighbor(row_nbytes=32))
        ctx.add_array_access(1, "A", AccessMode.WRITE)
        ctx.commit()
        yield from ctx.begin_cycle()
        s, _e = ctx.my_bounds()
        yield from ctx.compute(1, lambda a, b: np.ones(b - a + 1),
                               rows=(s, s - 1))
        yield from ctx.end_cycle()

    job.launch(program)


def test_global_reduce_reaches_removed_ranks():
    """The send-in/send-out rule: a dropped rank still receives global
    reduction results (paper Section 4.4's termination concern)."""
    cluster = make_cluster(4)
    cluster.install_script(LoadScript(cycle_triggers=[
        CycleTrigger(cycle=3, node=2, action="start", count=8)
    ]))
    job = DynMPIJob(cluster, RuntimeSpec(
        grace_period=2, post_redist_period=3, allow_removal=True,
        drop_margin=1e-9, daemon_interval=0.0005,
    ))
    sums = {}

    def program(ctx):
        ctx.register_dense("A", (N_ROWS, 4))
        ctx.init_phase(1, N_ROWS, NearestNeighbor(row_nbytes=32))
        ctx.add_array_access(1, "A", AccessMode.READWRITE, -1, 1)
        ctx.commit()

        def work_of(s, e):
            return np.full(e - s + 1, SPEED * 1e-5)

        for t in range(40):
            yield from ctx.begin_cycle()
            if ctx.participating():
                yield from ctx.compute(1, work_of)
            yield from ctx.end_cycle()
        # all ranks — including a removed one — get the global value
        value = yield from ctx.global_reduce(1 if ctx.participating() else 0)
        sums[ctx.world_rank] = value
        return ctx.participating()

    active = job.launch(program)
    assert not all(active), "expected a drop"
    expected = sum(1 for a in active if a)
    assert set(sums.values()) == {expected}


def test_begin_cycle_before_commit_rejected():
    cluster = make_cluster(1)
    job = DynMPIJob(cluster)

    def program(ctx):
        with pytest.raises(RegistrationError):
            yield from ctx.begin_cycle()
        yield from ()

    job.launch(program)


def test_array_shorter_than_loop_rejected_at_commit():
    cluster = make_cluster(1)
    job = DynMPIJob(cluster)

    def program(ctx):
        ctx.register_dense("A", (8, 2))
        ctx.init_phase(1, 16, NearestNeighbor(row_nbytes=16))
        ctx.add_array_access(1, "A", AccessMode.WRITE)
        with pytest.raises(RegistrationError):
            ctx.commit()
        yield from ()

    job.launch(program)


def test_max_redistributions_zero_means_unlimited():
    cluster = make_cluster(4)
    cluster.install_script(LoadScript(cycle_triggers=[
        CycleTrigger(cycle=3, node=0, action="start"),
        CycleTrigger(cycle=25, node=0, action="stop"),
    ]))
    job = DynMPIJob(cluster, RuntimeSpec(
        grace_period=2, post_redist_period=3, allow_removal=False,
        daemon_interval=0.0005, max_redistributions=0,
    ))
    job.launch(base_program, args=(60,))
    redists = [ev for ev in job.events if ev.kind == "redistribute"]
    assert len(redists) >= 2


def test_nn_neighbors_skip_empty_ranks():
    cluster = make_cluster(4)
    job = DynMPIJob(cluster, adaptive=False)
    seen = {}

    def program(ctx):
        ctx.register_dense("A", (3, 2))  # 3 rows over 4 ranks: one empty
        ctx.init_phase(1, 3, NearestNeighbor(row_nbytes=16))
        ctx.add_array_access(1, "A", AccessMode.WRITE)
        ctx.commit()
        yield from ctx.begin_cycle()
        seen[ctx.rel_rank()] = ctx.nn_neighbors()
        yield from ctx.end_cycle()

    job.launch(program)
    assert seen[0] == (None, 1)
    assert seen[1] == (0, 2)
    assert seen[2] == (1, None)
    assert seen[3] == (None, None)  # no rows, no neighbors
