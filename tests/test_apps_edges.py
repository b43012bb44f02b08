"""Edge-case tests for the applications: tiny per-rank ranges (the
SOR overlap's boundary logic), more ranks than work, empty bounds
during collectives, and model-mode/real-mode agreement."""

import numpy as np
import pytest

from repro.apps import (
    CGConfig,
    JacobiConfig,
    ParticleConfig,
    SORConfig,
    cg_program,
    jacobi_program,
    particle_program,
    run_program,
    sor_program,
)
from repro.apps import sor as sor_mod
from repro.apps import jacobi as jacobi_mod
from repro.apps.reference import (
    cg_matrix_dense,
    cg_reference,
    jacobi_reference,
    particle_reference,
    sor_reference,
)
from repro.apps import initial_counts
from repro.config import ClusterSpec, NetworkSpec, NodeSpec, RuntimeSpec
from repro.simcluster import Cluster, CycleTrigger, LoadScript


def make_cluster(n, cpu_per_byte=0.01, cpu_per_msg=50.0, **spec):
    return Cluster(ClusterSpec(
        n_nodes=n,
        node=NodeSpec(speed=1e8),
        network=NetworkSpec(latency=75e-6, bandwidth=12.5e6,
                            cpu_per_byte=cpu_per_byte, cpu_per_msg=cpu_per_msg),
        **spec,
    ))


def test_sor_two_rows_per_rank_overlap_branch():
    """With <= 2 rows per rank the overlap split cannot run; the
    fallback branch must still be numerically exact."""
    cfg = SORConfig(n=8, iters=4, materialized=True, collect=True)
    res = run_program(make_cluster(4), sor_program, cfg, adaptive=False)
    expected = sor_reference(sor_mod.initial_grid(cfg), cfg.iters, cfg.omega)
    for out in res.per_rank:
        assert np.allclose(out["grid"], expected, atol=1e-12)


def test_sor_single_row_per_rank():
    cfg = SORConfig(n=6, iters=3, materialized=True, collect=True)
    res = run_program(make_cluster(6), sor_program, cfg, adaptive=False)
    expected = sor_reference(sor_mod.initial_grid(cfg), cfg.iters, cfg.omega)
    for out in res.per_rank:
        assert np.allclose(out["grid"], expected, atol=1e-12)


def test_jacobi_single_node_no_comm():
    cfg = JacobiConfig(n=12, iters=5, materialized=True, collect=True)
    res = run_program(make_cluster(1), jacobi_program, cfg, adaptive=False)
    expected = jacobi_reference(jacobi_mod.initial_grid(cfg), cfg.iters)
    assert np.allclose(res.per_rank[0]["grid"], expected, atol=1e-12)


def test_jacobi_more_ranks_than_comfortable():
    """8 ranks over 16 rows: 2 rows each, halos everywhere."""
    cfg = JacobiConfig(n=16, iters=4, materialized=True, collect=True)
    res = run_program(make_cluster(8), jacobi_program, cfg, adaptive=False)
    expected = jacobi_reference(jacobi_mod.initial_grid(cfg), cfg.iters)
    for out in res.per_rank:
        assert np.allclose(out["grid"], expected, atol=1e-12)


def test_cg_virtual_vector_mode_matches_exact_cycle_count():
    """exact_math=False runs the same communication schedule (cycles,
    events) as exact math, just without the arithmetic."""
    cfgA = CGConfig(n=64, iters=8, exact_math=True)
    cfgB = CGConfig(n=64, iters=8, exact_math=False)
    resA = run_program(make_cluster(4), cg_program, cfgA, adaptive=False)
    resB = run_program(make_cluster(4), cg_program, cfgB, adaptive=False)
    assert resA.per_rank[0]["cycles"] == resB.per_rank[0]["cycles"]
    # same message count: the schedule is identical
    assert resA.job.cluster.network.n_messages == \
        resB.job.cluster.network.n_messages


def test_particle_grid_thinner_than_ranks():
    cfg = ParticleConfig(rows=6, cols=4, steps=5, collect=True)
    res = run_program(make_cluster(3), particle_program, cfg, adaptive=False)
    expected = particle_reference(initial_counts(cfg), cfg.steps, cfg.seed)
    for out in res.per_rank:
        assert np.array_equal(out["grid"], expected)


def test_particle_fig7_initialization():
    cfg = ParticleConfig(rows=32, cols=4, part_top=10.0, n_nodes_hint=4)
    counts = initial_counts(cfg)
    hot = cfg.rows // (2 * cfg.n_nodes_hint)
    assert np.all(counts[:hot] == 10.0)
    assert np.all(counts[hot:] == 1.5)


def test_particle_hot_rows_initialization():
    cfg = ParticleConfig(rows=10, cols=4, base_density=2.0,
                         hot_rows=3, hot_factor=2.0)
    counts = initial_counts(cfg)
    assert np.all(counts[:3] == 4.0)
    assert np.all(counts[3:] == 2.0)


def _same_grid(expected, atol=0.0):
    def check(res):
        for out in res.per_rank:
            if "grid" in out:
                assert np.allclose(out["grid"], expected, rtol=0, atol=atol)
    return check


def _jacobi_case():
    cfg = JacobiConfig(n=24, iters=30, materialized=True, collect=True)
    expected = jacobi_reference(jacobi_mod.initial_grid(cfg), cfg.iters)
    return jacobi_program, cfg, _same_grid(expected, atol=1e-12)


def _sor_case():
    cfg = SORConfig(n=24, iters=30, materialized=True, collect=True)
    expected = sor_reference(sor_mod.initial_grid(cfg), cfg.iters, cfg.omega)
    return sor_program, cfg, _same_grid(expected, atol=1e-12)


def _cg_case():
    cfg = CGConfig(n=48, iters=25, exact_math=True)
    A = cg_matrix_dense(cfg.n, nnz_target=cfg.nnz_target, seed=cfg.seed)
    x_ref, _ = cg_reference(A, np.ones(cfg.n), cfg.iters)

    def check(res):
        x = np.zeros(cfg.n)
        for out in res.per_rank:
            for g, v in out["x_local"].items():
                x[g] = v
        assert np.allclose(x, x_ref, atol=1e-8)
    return cg_program, cfg, check


def _particle_case():
    cfg = ParticleConfig(rows=24, cols=6, steps=30, collect=True)
    expected = particle_reference(initial_counts(cfg), cfg.steps, cfg.seed)
    return particle_program, cfg, _same_grid(expected)


REMOVAL_SPEC = RuntimeSpec(grace_period=2, post_redist_period=3,
                           allow_removal=True, drop_margin=1e-9,
                           daemon_interval=0.002)


def swamp_node_1():
    """8 competitors land on node 1 at cycle 3: with ``REMOVAL_SPEC``
    the runtime drops it."""
    return LoadScript(cycle_triggers=[
        CycleTrigger(cycle=3, node=1, action="start", count=8)
    ])


@pytest.mark.parametrize("case", [_jacobi_case, _sor_case, _cg_case,
                                  _particle_case],
                         ids=["jacobi", "sor", "cg", "particle"])
def test_apps_run_under_removal_policy(case):
    """An app surviving an actual drop mid-run still computes the
    exact reference result (active ranks take over the rows), and the
    removed rank keeps every world collective matched: ``launch`` runs
    the sanitizer's ``finalize()``, which raises on a send-out nobody
    consumed (paper Section 4.4) — in the plain lane too."""
    program, cfg, check = case()
    res = run_program(make_cluster(4, sanitize=True), program, cfg,
                      spec=REMOVAL_SPEC, adaptive=True,
                      load_script=swamp_node_1())
    assert any(ev.kind == "drop" for ev in res.events)
    check(res)


def test_cg_global_reduce_reaches_removed_ranks():
    """The one defect the retired static flow pass caught (PR 4): CG's
    ``global_reduce`` calls sat under ``if participating``, so every
    post-removal iteration left two unmatched send-outs per removed
    rank and the sanitizer threw at finalize."""
    res = run_program(
        make_cluster(4, cpu_per_byte=0.4, cpu_per_msg=3000.0, sanitize=True),
        cg_program, CGConfig(n=48, iters=25),
        spec=REMOVAL_SPEC, adaptive=True, load_script=swamp_node_1(),
    )
    assert res.n_redistributions >= 1
    assert res.per_rank[0]["residual"] == pytest.approx(0.0, abs=1e-6)
    # every rank — including the removed one — tracked the recurrence
    residuals = {r["residual"] for r in res.per_rank}
    assert len(residuals) == 1
