"""Tuning ablations the paper's tech report [27] covers and DESIGN.md
calls out: the grace-period length sweep and the eager/rendezvous
threshold.

* Grace sweep: longer grace periods measure better but delay the
  redistribution; the paper's default (5) should sit near the sweet
  spot for the Figure-4 Jacobi scenario.
* Eager threshold: halo rows (16 KiB at 2048 columns) flip between
  eager and rendezvous; the cycle time must not degrade wildly either
  way (the sender-blocking cost of rendezvous is overlapped by the
  apps' compute).
"""

from dataclasses import replace

from repro.apps import JacobiConfig, jacobi_program, run_program
from repro.config import RuntimeSpec, pentium_cluster
from repro.experiments.harness import bench_scale, scaled, scaled_spec
from repro.experiments.report import format_table
from repro.simcluster import Cluster, single_competitor

DEFAULT_SCALE = 0.5


def run_jacobi(spec, *, scale, cluster_spec=None, iters_mult=1.0):
    cfg = JacobiConfig(n=scaled(2048, scale, 64),
                       iters=scaled(int(250 * iters_mult), scale, 30),
                       materialized=False)
    return run_program(
        Cluster(cluster_spec or pentium_cluster(4)), jacobi_program, cfg,
        spec=spec, load_script=single_competitor(0, start_cycle=10),
    )


def test_grace_period_sweep(benchmark, record_table):
    scale = bench_scale(DEFAULT_SCALE)

    def sweep():
        out = {}
        for gp in (1, 3, 5, 8):
            spec = scaled_spec(RuntimeSpec(grace_period=gp,
                                           allow_removal=False), scale)
            out[gp] = run_jacobi(spec, scale=scale)
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [(gp, res.wall_time, res.n_redistributions)
            for gp, res in sorted(results.items())]
    record_table("ablation_grace", format_table(
        ["grace cycles", "total(s)", "#redist"], rows,
        title="Ablation — grace period length (Jacobi, 4 nodes, 1 CP)",
    ), data=[dict(zip(("grace_cycles", "total_s", "n_redist"), r))
             for r in rows])
    times = {gp: res.wall_time for gp, res in results.items()}
    # every configuration adapts, and no sane grace period is a
    # catastrophe relative to the paper default
    assert all(res.n_redistributions >= 1 for res in results.values())
    for gp, t in times.items():
        assert t < times[5] * 1.35, f"GP={gp} pathologically slow"


def test_eager_threshold_sweep(benchmark, record_table):
    scale = bench_scale(DEFAULT_SCALE)
    base = pentium_cluster(4)

    def sweep():
        out = {}
        for eager in (0, 16 * 1024, 1 << 22):
            cluster_spec = replace(
                base, network=replace(base.network, eager_threshold=eager))
            spec = scaled_spec(RuntimeSpec(allow_removal=False), scale)
            out[eager] = run_jacobi(spec, scale=scale,
                                    cluster_spec=cluster_spec,
                                    iters_mult=0.4)
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [(eager, res.wall_time, res.n_redistributions)
            for eager, res in sorted(results.items())]
    record_table("ablation_eager", format_table(
        ["eager threshold(B)", "total(s)", "#redist"], rows,
        title="Ablation — eager/rendezvous threshold (Jacobi, 4 nodes)",
    ), data=[dict(zip(("eager_threshold_b", "total_s", "n_redist"), r))
             for r in rows])
    times = [res.wall_time for res in results.values()]
    assert max(times) < min(times) * 1.5
