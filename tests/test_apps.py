"""Application correctness tests: each distributed app must compute
exactly what its sequential reference computes — with and without
redistribution happening mid-run."""

import numpy as np
import pytest

from repro.apps import (
    CGConfig,
    JacobiConfig,
    ParticleConfig,
    SORConfig,
    cg_program,
    initial_counts,
    jacobi_program,
    particle_program,
    run_program,
    sor_program,
)
from repro.apps import jacobi as jacobi_mod
from repro.apps import sor as sor_mod
from repro.apps.kernels import make_cg_rows
from repro.apps.reference import (
    cg_matrix_dense,
    cg_reference,
    jacobi_reference,
    particle_reference,
    sor_reference,
)
from repro.config import ClusterSpec, NetworkSpec, NodeSpec, RuntimeSpec
from repro.simcluster import Cluster, CycleTrigger, LoadScript

# tiny test problems mean sub-millisecond phase cycles, so the load
# daemon must sample far faster than the paper's 1 Hz to notice the
# competing process within the run
FAST_SPEC = RuntimeSpec(grace_period=2, post_redist_period=3,
                        allow_removal=False, daemon_interval=0.002)


def make_cluster(n=4):
    # Tiny test problems (tens of rows) must keep the comm/comp ratio
    # realistic, so the per-message CPU overheads are scaled down with
    # the problem; otherwise the balancer correctly-but-unhelpfully
    # optimizes for neighbor count instead of load.
    return Cluster(ClusterSpec(
        n_nodes=n,
        node=NodeSpec(speed=1e8),
        network=NetworkSpec(latency=75e-6, bandwidth=12.5e6,
                            cpu_per_byte=0.01, cpu_per_msg=50.0),
    ))


def loaded_script(node=0, cycle=3, count=2):
    return LoadScript(cycle_triggers=[
        CycleTrigger(cycle=cycle, node=node, action="start", count=count)
    ])


# ----------------------------------------------------------------------
# Jacobi
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_nodes", [1, 2, 4])
def test_jacobi_matches_reference(n_nodes):
    cfg = JacobiConfig(n=24, iters=6, materialized=True, collect=True)
    res = run_program(make_cluster(n_nodes), jacobi_program, cfg, adaptive=False)
    expected = jacobi_reference(jacobi_mod.initial_grid(cfg), cfg.iters)
    for out in res.per_rank:
        assert np.allclose(out["grid"], expected, atol=1e-12)


def test_jacobi_initial_rows_are_the_initial_grids_rows():
    """Each rank builds only its own rows of the initial condition: any
    span of them is bitwise the same span of the whole grid."""
    rng = np.random.default_rng(0)
    for n, seed in ((1, 0), (7, 3), (64, 7), (129, 11)):
        cfg = JacobiConfig(n=n, seed=seed)
        grid = jacobi_mod.initial_grid(cfg)
        for _ in range(20):
            lo, hi = sorted(int(r) for r in rng.integers(0, n, size=2))
            rows = jacobi_mod.initial_rows(cfg, lo, hi)
            assert rows.tobytes() == grid[lo:hi + 1].tobytes(), (n, lo, hi)


def test_jacobi_correct_across_redistribution():
    cfg = JacobiConfig(n=32, iters=30, materialized=True, collect=True)
    res = run_program(
        make_cluster(4), jacobi_program, cfg,
        spec=FAST_SPEC, adaptive=True, load_script=loaded_script(),
    )
    assert res.n_redistributions >= 1
    expected = jacobi_reference(jacobi_mod.initial_grid(cfg), cfg.iters)
    for out in res.per_rank:
        assert np.allclose(out["grid"], expected, atol=1e-12)
    # the loaded node ends with fewer rows than even
    s0, e0 = res.bounds[0]
    assert (e0 - s0 + 1) < cfg.n // 4


def test_jacobi_virtual_mode_runs_and_adapts():
    cfg = JacobiConfig(n=64, iters=30, materialized=False)
    res = run_program(
        make_cluster(4), jacobi_program, cfg,
        spec=FAST_SPEC, adaptive=True, load_script=loaded_script(),
    )
    assert res.n_redistributions >= 1
    assert res.wall_time > 0


# ----------------------------------------------------------------------
# SOR
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_nodes", [1, 3, 4])
def test_sor_matches_reference(n_nodes):
    cfg = SORConfig(n=20, iters=5, materialized=True, collect=True)
    res = run_program(make_cluster(n_nodes), sor_program, cfg, adaptive=False)
    expected = sor_reference(sor_mod.initial_grid(cfg), cfg.iters, cfg.omega)
    for out in res.per_rank:
        assert np.allclose(out["grid"], expected, atol=1e-12)


def test_sor_correct_across_redistribution():
    cfg = SORConfig(n=24, iters=24, materialized=True, collect=True)
    res = run_program(
        make_cluster(3), sor_program, cfg,
        spec=FAST_SPEC, adaptive=True, load_script=loaded_script(node=1),
    )
    assert res.n_redistributions >= 1
    expected = sor_reference(sor_mod.initial_grid(cfg), cfg.iters, cfg.omega)
    for out in res.per_rank:
        assert np.allclose(out["grid"], expected, atol=1e-12)


# ----------------------------------------------------------------------
# CG
# ----------------------------------------------------------------------
def test_cg_matrix_is_symmetric_and_diag_dominant():
    n = 60
    A = cg_matrix_dense(n)
    assert np.allclose(A, A.T)
    for i in range(n):
        assert A[i, i] > np.abs(A[i]).sum() - A[i, i]


def test_cg_rows_consistent_with_dense():
    n = 40
    A = cg_matrix_dense(n)
    for g in (0, 7, n - 1):
        cols, vals = make_cg_rows(n, g)
        row = np.zeros(n)
        row[cols] = vals
        assert np.allclose(row, A[g])


@pytest.mark.parametrize("n_nodes", [1, 2, 4])
def test_cg_matches_reference(n_nodes):
    cfg = CGConfig(n=48, iters=12)
    res = run_program(make_cluster(n_nodes), cg_program, cfg, adaptive=False)
    A = cg_matrix_dense(cfg.n, nnz_target=cfg.nnz_target, seed=cfg.seed)
    x_ref, resid_ref = cg_reference(A, np.ones(cfg.n), cfg.iters)
    # assemble distributed x
    x = np.zeros(cfg.n)
    for out in res.per_rank:
        for g, v in out["x_local"].items():
            x[g] = v
    assert np.allclose(x, x_ref, atol=1e-8)
    assert res.per_rank[0]["residual"] == pytest.approx(resid_ref, abs=1e-8)


def test_cg_converges():
    cfg = CGConfig(n=64, iters=40)
    res = run_program(make_cluster(2), cg_program, cfg, adaptive=False)
    assert res.per_rank[0]["residual"] < 1e-6 * np.sqrt(cfg.n)


def test_cg_correct_across_redistribution():
    cfg = CGConfig(n=48, iters=25)
    res = run_program(
        make_cluster(4), cg_program, cfg,
        spec=FAST_SPEC, adaptive=True, load_script=loaded_script(node=2),
    )
    assert res.n_redistributions >= 1
    A = cg_matrix_dense(cfg.n, nnz_target=cfg.nnz_target, seed=cfg.seed)
    x_ref, _ = cg_reference(A, np.ones(cfg.n), cfg.iters)
    x = np.zeros(cfg.n)
    for out in res.per_rank:
        for g, v in out["x_local"].items():
            x[g] = v
    assert np.allclose(x, x_ref, atol=1e-8)


# ----------------------------------------------------------------------
# particle simulation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_nodes", [1, 2, 4])
def test_particle_matches_reference(n_nodes):
    cfg = ParticleConfig(rows=16, cols=8, steps=6, collect=True)
    res = run_program(make_cluster(n_nodes), particle_program, cfg, adaptive=False)
    expected = particle_reference(initial_counts(cfg), cfg.steps, cfg.seed)
    for out in res.per_rank:
        assert np.array_equal(out["grid"], expected)


def test_particle_mass_conserved():
    cfg = ParticleConfig(rows=16, cols=8, steps=10)
    res = run_program(make_cluster(2), particle_program, cfg, adaptive=False)
    total = sum(out["particles"] for out in res.per_rank)
    assert total == pytest.approx(initial_counts(cfg).sum())


def test_particle_correct_across_redistribution():
    cfg = ParticleConfig(rows=24, cols=8, steps=24, hot_rows=6,
                         hot_factor=2.0, collect=True)
    res = run_program(
        make_cluster(4), particle_program, cfg,
        spec=FAST_SPEC, adaptive=True, load_script=loaded_script(node=0),
    )
    assert res.n_redistributions >= 1
    expected = particle_reference(initial_counts(cfg), cfg.steps, cfg.seed)
    for out in res.per_rank:
        assert np.array_equal(out["grid"], expected)


def test_particle_unbalanced_rows_get_fewer_per_node():
    """With 2x particles on the hot rows, weighted blocks give the hot
    node fewer rows even when nobody is loaded (after a redistribution
    is forced by a competing process elsewhere)."""
    cfg = ParticleConfig(rows=32, cols=8, steps=40, hot_rows=8, hot_factor=4.0)
    res = run_program(
        make_cluster(4), particle_program, cfg,
        spec=FAST_SPEC, adaptive=True,
        load_script=LoadScript(cycle_triggers=[
            CycleTrigger(cycle=3, node=3, action="start"),
            CycleTrigger(cycle=20, node=3, action="stop"),
        ]),
    )
    assert res.n_redistributions >= 1
    # the heavy upper half (the hot region plus the mass that diffuses
    # just below it) is held by the first two ranks with fewer rows
    # than the light lower half held by the last two
    upper = sum(e - s + 1 for s, e in res.bounds[:2] if e >= s)
    lower = sum(e - s + 1 for s, e in res.bounds[2:] if e >= s)
    assert upper + lower == cfg.rows
    assert upper < lower


# ----------------------------------------------------------------------
# host cost: the materialized data path is slab-at-a-time
# ----------------------------------------------------------------------
def test_jacobi_interval_algebra_does_not_scale_with_rows(monkeypatch):
    """A per-row ``hold([g])`` / ``row(g)`` in an app kernel shows up
    as interval-set constructions proportional to rows x cycles (4x the
    rows gave 3.8x the constructions when Jacobi walked its rows one at
    a time); one ``block`` / ``hold(range)`` / ``set_block`` per
    ``compute()`` call does not grow with the grid at all."""
    from repro._intervals import IntervalSet
    from repro.config import pentium_cluster

    built = []
    init = IntervalSet.__init__

    def counting_init(self, *args, **kwargs):
        built[-1] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(IntervalSet, "__init__", counting_init)
    for n in (32, 128):
        built.append(0)
        cfg = JacobiConfig(n=n, iters=20, materialized=True)
        run_program(Cluster(pentium_cluster(2)), jacobi_program, cfg)
    small, large = built
    assert small > 0
    assert large / small < 1.5, built


def test_jacobi_stencil_copies_no_block(monkeypatch):
    """The materialized stencil reads its halo and writes its rows as
    slab views (``ProjectedArray.rows``): across a redistribution, no
    ``block`` / ``set_block`` call comes from inside a ``compute()``,
    and the result is still the sequential one."""
    from repro.core.runtime import DynMPI
    from repro.dmem import ProjectedArray

    calls = {"exec": 0, "block": 0, "set_block": 0}
    inside = [False]

    def counted(name):
        fn = getattr(ProjectedArray, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += inside[0]
            return fn(self, *args, **kwargs)
        return wrapper

    compute = DynMPI.compute

    def watched(self, phase_id, work_of_rows, exec_rows=None, rows=None):
        def exec_watched(lo, hi):
            calls["exec"] += 1
            inside[0] = True
            try:
                exec_rows(lo, hi)
            finally:
                inside[0] = False
        yield from compute(self, phase_id, work_of_rows,
                           exec_watched if exec_rows else None, rows)

    for name in ("block", "set_block"):
        monkeypatch.setattr(ProjectedArray, name, counted(name))
    monkeypatch.setattr(DynMPI, "compute", watched)
    cfg = JacobiConfig(n=32, iters=30, materialized=True, collect=True)
    res = run_program(
        make_cluster(4), jacobi_program, cfg,
        spec=FAST_SPEC, adaptive=True, load_script=loaded_script(),
    )
    assert res.n_redistributions >= 1
    assert calls["exec"] >= 4 * cfg.iters
    assert calls["block"] == calls["set_block"] == 0, calls
    expected = jacobi_reference(jacobi_mod.initial_grid(cfg), cfg.iters)
    for out in res.per_rank:
        assert np.array_equal(out["grid"], expected)


def test_particle_and_cg_do_not_walk_their_rows(monkeypatch):
    """The particle step and the CG matrix build are one kernel entry
    per ``compute()`` call / per build chunk, whatever the problem
    size: 4x the rows enters the block kernels exactly as often, and
    the app build never installs a sparse row by itself."""
    from repro.apps import cg as cg_mod
    from repro.apps import particle as particle_mod
    from repro.config import pentium_cluster
    from repro.dmem import SparseMatrix

    entries = {}

    def counted(fn):
        def wrapper(*args, **kwargs):
            entries[fn.__name__] = entries.get(fn.__name__, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(particle_mod, "particle_block_flows",
                        counted(particle_mod.particle_block_flows))
    monkeypatch.setattr(cg_mod, "cg_block_csr", counted(cg_mod.cg_block_csr))
    monkeypatch.setattr(SparseMatrix, "set_row_items",
                        counted(SparseMatrix.set_row_items))
    seen = []
    for scale in (1, 4):
        entries.clear()
        run_program(Cluster(pentium_cluster(2)), particle_program,
                    ParticleConfig(rows=32 * scale, cols=8, steps=10))
        run_program(Cluster(pentium_cluster(2)), cg_program,
                    CGConfig(n=64 * scale, iters=5))
        seen.append(dict(entries))
    small, large = seen
    assert small == large == {"particle_block_flows": 2 * 10, "cg_block_csr": 2}


def test_grace_rows_do_not_cost_events_per_row(monkeypatch):
    """A grace-period ``compute()`` times its rows one by one as a
    single CPU job: on an idle node it costs O(1) kernel events however
    many rows it has (4x the rows gave 4x the events when every row was
    its own ``Compute``, two per row), on a loaded node at most about
    one per row (three, before)."""
    from repro.config import pentium_cluster
    from repro.core.runtime import DynMPI
    from repro.simcluster import single_competitor

    calls = []  # (node loaded?, rows, events) per grace-period compute()
    compute = DynMPI.compute

    def own_events(ctx):
        # every kernel event but the load daemon's samples (one each)
        return ctx.job.cluster.sim.n_events - len(ctx.job.ps.history(ctx.node_id))

    def counted(self, phase_id, work_of_rows, *args, **kwargs):
        node = self.job.cluster.nodes[self.node_id]
        mode, loaded, before = self.view.mode, bool(node.background), own_events(self)
        s, e = self.my_bounds()
        yield from compute(self, phase_id, work_of_rows, *args, **kwargs)
        if mode == "grace":
            calls.append((loaded, e - s + 1, own_events(self) - before))

    monkeypatch.setattr(DynMPI, "compute", counted)
    spec = RuntimeSpec(grace_period=3, post_redist_period=3,
                       allow_removal=False, daemon_interval=0.01)
    idle = {}
    for n in (64, 256):
        calls.clear()
        # one node, so every other event during a call is the call's
        # own; the competitor leaving at cycle 10 restarts the grace
        # period on a node that is idle again
        run_program(Cluster(pentium_cluster(1)), jacobi_program,
                    JacobiConfig(n=n, iters=40), spec=spec, adaptive=True,
                    load_script=single_competitor(0, start_cycle=3, stop_cycle=10))
        assert {loaded for loaded, _, _ in calls} == {True, False}
        for loaded, rows, events in calls:
            if loaded:
                assert events < 1.1 * rows, calls
        idle[n] = max(events for loaded, _, events in calls if not loaded)
    assert idle[256] < 1.5 * idle[64], idle
