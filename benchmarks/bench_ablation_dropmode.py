"""Ablation bench — physical vs logical dropping (Section 2.2).

The paper asserts "the performance difference between logical and
physical dropping can be significant" because a logically dropped node
keeps its rank by holding a minimal amount of data, which keeps it in
every halo exchange and collective.  This bench measures both policies
on the SOR removal scenario.
"""

from repro.apps import SORConfig, sor_program
from repro.config import RuntimeSpec, ultrasparc_cluster
from repro.experiments.harness import (
    Scenario,
    bench_scale,
    scaled,
    scaled_spec,
    steady_state_cycle_time,
)
from repro.experiments.report import format_table
from repro.simcluster import single_competitor

DEFAULT_SCALE = 1.0


def run_drop_mode(mode: str, *, n_nodes=16, n_cp=3, scale=None):
    scale = bench_scale(DEFAULT_SCALE) if scale is None else scale
    cfg = SORConfig(n=scaled(1024, scale, 64), iters=scaled(250, scale, 60),
                    materialized=False)
    spec = scaled_spec(RuntimeSpec(
        allow_removal=True, drop_mode=mode, drop_margin=1e-9,
        post_redist_period=5,
    ), scale)
    return Scenario(
        name=f"dropmode:{mode}",
        cluster_spec=ultrasparc_cluster(n_nodes),
        program=sor_program,
        cfg=cfg,
        spec=spec,
        adaptive=True,
        load_script=single_competitor(0, start_cycle=10, count=n_cp),
    ).run()


def test_physical_vs_logical_drop(benchmark, record_table):
    def run_both():
        return {mode: run_drop_mode(mode) for mode in ("physical", "logical")}

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    phys = steady_state_cycle_time(results["physical"])
    logi = steady_state_cycle_time(results["logical"])
    table = format_table(
        ["policy", "steady cycle(ms)", "events"],
        [
            ("physical", phys * 1e3,
             ";".join(ev.kind for ev in results["physical"].events)),
            ("logical", logi * 1e3,
             ";".join(ev.kind for ev in results["logical"].events)),
        ],
        title="Ablation — physical vs logical dropping (SOR, 16 nodes, 3 CPs)",
    )
    record_table("ablation_dropmode", table, data={
        mode: {"steady_cycle_ms": v * 1e3,
               "events": [ev.kind for ev in results[mode].events]}
        for mode, v in (("physical", phys), ("logical", logi))
    })
    assert any(ev.kind == "drop" for ev in results["physical"].events)
    assert any(ev.kind == "logical_drop" for ev in results["logical"].events)
    # the paper's claim: physical dropping is the faster policy
    assert phys <= logi * 1.02
