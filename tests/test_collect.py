"""``collect_rows``: one read-only array per collect, shared by every
active rank of the job, bitwise equal to the sequential reference."""

import tracemalloc

import numpy as np
import pytest

from repro.apps import (
    JacobiConfig,
    ParticleConfig,
    SORConfig,
    collect_rows,
    initial_counts,
    jacobi_program,
    particle_program,
    run_program,
    sor_program,
)
from repro.apps import jacobi as jacobi_mod
from repro.apps import sor as sor_mod
from repro.apps.reference import jacobi_reference, particle_reference, sor_reference
from repro.config import ClusterSpec, NetworkSpec, NodeSpec
from repro.core import AccessMode, NearestNeighbor
from repro.simcluster import Cluster


def make_cluster(n=4):
    return Cluster(ClusterSpec(
        n_nodes=n,
        node=NodeSpec(speed=1e8),
        network=NetworkSpec(latency=75e-6, bandwidth=12.5e6,
                            cpu_per_byte=0.01, cpu_per_msg=50.0),
    ))


def _jacobi():
    cfg = JacobiConfig(n=24, iters=6, materialized=True, collect=True)
    return cfg, jacobi_program, jacobi_reference(jacobi_mod.initial_grid(cfg), cfg.iters)


def _sor():
    cfg = SORConfig(n=20, iters=5, materialized=True, collect=True)
    return cfg, sor_program, sor_reference(sor_mod.initial_grid(cfg), cfg.iters, cfg.omega)


def _particle():
    cfg = ParticleConfig(rows=16, cols=8, steps=6, collect=True)
    return cfg, particle_program, particle_reference(initial_counts(cfg), cfg.steps, cfg.seed)


@pytest.mark.parametrize("app", [_jacobi, _sor, _particle],
                         ids=["jacobi", "sor", "particle"])
def test_every_rank_gets_one_read_only_grid(app):
    cfg, program, expected = app()
    res = run_program(make_cluster(4), program, cfg, adaptive=False)
    grids = [out["grid"] for out in res.per_rank]
    assert all(g is grids[0] for g in grids)
    assert not grids[0].flags.writeable
    assert np.array_equal(grids[0], expected)
    assert res.job._collected == {}  # nothing outlives the collect


def _collect_twice(ctx, n):
    A = ctx.register_dense("A", (n, 3))
    ctx.init_phase(1, n, NearestNeighbor(row_nbytes=24))
    ctx.add_array_access(1, "A", AccessMode.READWRITE)
    ctx.commit()
    s, e = ctx.my_bounds()
    A.set_block(s, np.ones((e - s + 1, 3)))
    first = yield from collect_rows(ctx, A)
    A.set_block(s, np.full((e - s + 1, 3), 2.0 + ctx.rel_rank()))
    second = yield from collect_rows(ctx, A)
    return first, second, (s, e)


def test_a_second_collect_sees_new_rows_and_leaves_the_first_alone():
    res = run_program(make_cluster(4), _collect_twice, 12, adaptive=False)
    firsts = [out[0] for out in res.per_rank]
    seconds = [out[1] for out in res.per_rank]
    assert all(g is firsts[0] for g in firsts)
    assert all(g is seconds[0] for g in seconds)
    assert firsts[0] is not seconds[0]
    assert np.array_equal(firsts[0], np.ones((12, 3)))
    for rel, (_, _, (s, e)) in enumerate(res.per_rank):
        assert np.array_equal(seconds[0][s:e + 1], np.full((e - s + 1, 3), 2.0 + rel))


def _run_jacobi(collect: bool) -> None:
    cfg = JacobiConfig(n=256, iters=2, materialized=True, collect=collect)
    run_program(make_cluster(16), jacobi_program, cfg, adaptive=False)


def _peak_bytes(collect: bool) -> int:
    tracemalloc.start()
    try:
        _run_jacobi(collect)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_collect_costs_fewer_than_three_grids_at_sixteen_ranks():
    """Memory guard: assembling a grid per rank would cost ~16 grids
    over the run without the collect; one shared grid plus the gathered
    blocks costs about two."""
    grid = 256 * 256 * 8
    # untraced warm-up: first-use allocations (imports, caches) would
    # otherwise land in whichever run is traced first
    _run_jacobi(True)
    extra = _peak_bytes(True) - _peak_bytes(False)
    assert extra < 3 * grid, f"collect costs {extra / grid:.1f} grids"
