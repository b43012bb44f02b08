"""The four benchmark workloads: recipes, simulated outputs, oracles.

A workload is a closed batch of *cells* (one simulated run each).
``Workload.setup(seed, size)`` builds every spec, load/failure script
and config up front — that is the set-up the harness times as
``setup_s`` — and returns the cells; ``Cell.run(observe, sanitize)``
constructs the cluster and simulates (the timed section);
``Workload.verify(runs, seed, size, oracle)`` checks the simulated
outputs against the workload's oracle afterwards, outside every timer.

Why these four, and what each one is expected to move, is recorded in
README.md next to this file (and, in one line each, in BENCHMARK.json);
the sizes are pinned here and must not
follow later changes to the figure modules (a benchmark whose inputs
drift measures nothing).
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

import numpy as np

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
from repro.apps.jacobi import initial_grid
from repro.apps.reference import jacobi_reference
from repro.campaign.results import jsonable
from repro.config import ClusterSpec, RuntimeSpec, pentium_cluster
from repro.experiments.harness import scaled, scaled_spec
from repro.farm import POLICIES, FarmSpec, farm_digest, reference_results, run_farm
from repro.obs.report import PHASES, attribute
from repro.obs.scenario import RemovalScenario, run_removal
from repro.resilience import CycleFault, FailureScript
from repro.simcluster import Cluster, CycleTrigger, LoadScript, single_competitor

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
FARM_BASELINE = REPO_ROOT / "benchmarks" / "results" / "BENCH_farm_throughput.json"

#: dynscope counters summed over a workload's cells in the observed run
#: (our metric name -> registry counter name)
OBS_COUNTERS = {
    "mpi.comm.messages_sent": "mpi.messages_sent",
    "mpi.comm.bytes_sent": "mpi.bytes_sent",
    "mpi.comm.match_ties": "mpi.match_ties",
    "mpi.rma.ops": "rma.ops",
    "mpi.rma.bytes": "rma.bytes",
    "core.redistribute.rows_sent": "redist.rows_sent",
    "core.redistribute.bytes_sent": "redist.bytes_sent",
    "resilience.ckpt_snapshots": "ckpt.snapshots",
    "resilience.ckpt_bytes": "ckpt.bytes",
}


@dataclass
class CellRun:
    """What one simulated run leaves behind."""

    label: str
    ranks: int
    #: simulated outputs entering ``sim_digest`` (plain JSON types)
    sim: dict
    #: contribution to ``sim_time_s``; None for the non-adaptive
    #: (dedicated / no-adapt) comparison runs
    sim_time: Optional[float] = None
    cycles: int = 0
    redistributions: int = 0
    drops: int = 0
    #: the enabled dynscope recorder of an observed run, else None
    obs: Any = None
    #: what only the verify stage needs (e.g. the collected grids)
    payload: Any = None
    #: traceback text when the run raised instead of finishing
    error: Optional[str] = None
    #: a scaling companion counts toward wall_s, the digest and the
    #: checks, but not toward the workload's counters or sim_time_s
    companion: bool = False


@dataclass(frozen=True)
class Cell:
    label: str
    run: Callable[[bool, bool], CellRun]


@dataclass(frozen=True)
class Check:
    """One correctness verdict; ``failed_frac`` is failed / attempted."""

    label: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, str], list[Cell]]
    verify: Callable[[list[CellRun], int, str, bool], list[Check]]
    #: workload-specific exact counters from the cell runs
    counters: Callable[[list[CellRun]], dict] = field(default=lambda runs: {})


def sim_digest(runs: list[CellRun]) -> str:
    """sha256 over the canonical JSON of every cell's simulated
    outputs — the identity a simulator-only speedup must preserve."""
    blob = json.dumps([jsonable(r.sim) for r in runs], sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def obs_summary(rec) -> dict:
    """Counters, attributed simulated rank-seconds and event count of
    one enabled recorder."""
    reg = rec.merged_registry()
    out = {ours: reg.counter_total(theirs) for ours, theirs in OBS_COUNTERS.items()}
    totals = attribute(e.to_dict() for e in rec.sorted_events())["total"]
    for phase in PHASES:
        out[f"sim.{phase}_s"] = totals[phase]
    out["obs.events_recorded"] = len(rec.events)
    return out


def _cluster_sim(cluster: Cluster) -> dict:
    return {
        "n_events": cluster.sim.n_events,
        "n_messages": cluster.network.n_messages,
        "n_bytes": cluster.network.n_bytes,
    }


def _app_run(label: str, result, cluster: Cluster, *, adaptive: bool = True,
             payload=None, companion: bool = False) -> CellRun:
    """A :class:`CellRun` from a DynMPI application result."""
    return CellRun(
        label=label,
        ranks=cluster.n_nodes,
        sim={
            "label": label,
            "wall_time": result.wall_time,
            "bounds": result.bounds,
            "adaptations": [(ev.kind, ev.cycle) for ev in result.events],
            **_cluster_sim(cluster),
        },
        sim_time=result.wall_time if adaptive else None,
        cycles=max(len(ct) for ct in result.cycle_times),
        redistributions=result.n_redistributions,
        drops=result.n_drops,
        obs=cluster.obs,
        payload=payload,
        companion=companion,
    )


def _switches(spec: ClusterSpec, observe: bool, sanitize: bool) -> ClusterSpec:
    """Pin both taps explicitly so no environment default leaks in."""
    return replace(spec, observe=observe, sanitize=sanitize)


# ---------------------------------------------------------------------------
# removal-256: the large-world control path
# ---------------------------------------------------------------------------

#: (primary ranks, scaling-companion ranks); n = 4 * ranks as in the
#: kernel bench.  iters=16, not that bench's iters=8: at 8 the run ends
#: before the post-redistribution window closes and no node is removed.
REMOVAL_RANKS = {"full": (256, 16), "smoke": (16, 8)}
REMOVAL_ITERS = 16


def _removal_setup(seed: int, size: str) -> list[Cell]:
    cells = []
    for ranks in REMOVAL_RANKS[size]:
        scenario = RemovalScenario(n_nodes=ranks, n=4 * ranks, iters=REMOVAL_ITERS,
                                   load_cycle=2, n_cp=2, seed=seed)

        def run(observe: bool, sanitize: bool, scenario=scenario) -> CellRun:
            # run_removal has no sanitize switch; this workload has no
            # sanitized run, so the guarded environment default applies
            result, cluster = run_removal(scenario, observe=observe)
            return _app_run(f"removal:{scenario.n_nodes}", result, cluster,
                            companion=scenario.n_nodes != REMOVAL_RANKS[size][0])

        cells.append(Cell(f"removal:{ranks}", run))
    return cells


def _removal_verify(runs, seed, size, oracle) -> list[Check]:
    checks = []
    for run in runs:
        n = 4 * run.ranks
        kinds = [kind for kind, _ in run.sim["adaptations"]]
        owned = sorted(tuple(b) for b in run.sim["bounds"] if b[1] >= b[0])
        partition = (
            bool(owned) and owned[0][0] == 0 and owned[-1][1] == n - 1
            and all(a[1] + 1 == b[0] for a, b in zip(owned, owned[1:]))
        )
        removed_empty = run.sim["bounds"][0][1] < run.sim["bounds"][0][0]
        ok = kinds == ["redistribute", "drop"] and partition and removed_empty
        checks.append(Check(run.label, ok,
                            f"adaptations={kinds} partition={partition} "
                            f"removed_empty={removed_empty}"))
    return checks


def _removal_counters(runs) -> dict:
    big, small = runs[0], runs[-1]
    per_rank = [r.sim["n_events"] / r.ranks for r in (big, small)]
    return {"simcluster.kernel.events_per_rank_growth": per_rank[0] / per_rank[1]}


# ---------------------------------------------------------------------------
# fig4-grid: the paper's headline grid
# ---------------------------------------------------------------------------

FIG4_APPS = {"full": ("jacobi", "sor", "cg", "particle"), "smoke": ("jacobi",)}
FIG4_SCALE = {"full": 0.5, "smoke": 0.35}
FIG4_NODES = (2, 4, 8)
FIG4_VARIANTS = ("dedicated", "noadapt", "dynmpi")
#: the paper disables removal for the overall experiment
FIG4_SPEC = RuntimeSpec(allow_removal=False)


def _fig4_app(app: str, scale: float, n_nodes: int):
    """The Figure 4 problem sizes (experiments/figure4.py at the time
    this benchmark was defined; test_smoke.py holds the two equal)."""
    if app == "jacobi":
        return jacobi_program, JacobiConfig(
            n=scaled(2048, scale, 64), iters=scaled(250, scale, 30))
    if app == "sor":
        return sor_program, SORConfig(
            n=scaled(2048, scale, 64), iters=scaled(250, scale, 30))
    if app == "cg":
        return cg_program, CGConfig(
            n=scaled(14000, scale, 128), iters=scaled(75, scale, 20),
            exact_math=False)
    rows = scaled(256, scale, 32)
    return particle_program, ParticleConfig(
        rows=rows, cols=rows, steps=scaled(200, scale, 30), base_density=1.5,
        hot_factor=2.0, hot_rows=rows // n_nodes)


def _fig4_setup(seed: int, size: str) -> list[Cell]:
    scale = FIG4_SCALE[size]
    spec = scaled_spec(FIG4_SPEC, scale)
    cells = []
    for app in FIG4_APPS[size]:
        for n in FIG4_NODES:
            program, cfg = _fig4_app(app, scale, n)
            for variant in FIG4_VARIANTS:
                script = (None if variant == "dedicated"
                          else single_competitor(0, start_cycle=10))
                label = f"fig4:{app}:{n}:{variant}"

                def run(observe, sanitize, label=label, n=n, program=program,
                        cfg=cfg, script=script,
                        adaptive=(variant == "dynmpi")) -> CellRun:
                    cluster = Cluster(_switches(pentium_cluster(n, seed=seed),
                                                observe, sanitize))
                    result = run_program(cluster, program, cfg, spec=spec,
                                         adaptive=adaptive, load_script=script)
                    return _app_run(label, result, cluster, adaptive=adaptive)

                cells.append(Cell(label, run))
    return cells


def _fig4_rows(runs) -> dict:
    """(app, nodes) -> {variant: simulated seconds}."""
    rows: dict = {}
    for run in runs:
        _, app, n, variant = run.label.split(":")
        rows.setdefault((app, int(n)), {})[variant] = run.sim["wall_time"]
    return rows


def _fig4_verify(runs, seed, size, oracle) -> list[Check]:
    checks = []
    for (app, n), t in _fig4_rows(runs).items():
        # the bench_fig4_overall.py shape assertions
        norm_noadapt = t["noadapt"] / t["dedicated"]
        ok = norm_noadapt > 1.25 and t["dynmpi"] < t["noadapt"]
        checks.append(Check(f"fig4:{app}:{n}", ok,
                            f"noadapt/ded={norm_noadapt:.3f} "
                            f"dynmpi={t['dynmpi']:.4f} noadapt={t['noadapt']:.4f}"))
    return checks


def _geomean(values) -> float:
    return float(np.exp(np.mean(np.log(list(values)))))


def _fig4_counters(runs) -> dict:
    rows = _fig4_rows(runs).values()
    return {
        "apps.fig4.dynmpi_over_dedicated":
            _geomean(t["dynmpi"] / t["dedicated"] for t in rows),
        "apps.fig4.noadapt_over_dynmpi":
            _geomean(t["noadapt"] / t["dynmpi"] for t in rows),
    }


# ---------------------------------------------------------------------------
# farm-64: p2p dispatch and one-sided RMA under kill/park churn
# ---------------------------------------------------------------------------

#: (ranks, n_jobs): the two cells of bench_farm_throughput.py
FARM_CELL = {"full": (64, 100_000), "smoke": (16, 8_000)}
FARM_CHUNK = 16


def _farm_setup(seed: int, size: str) -> list[Cell]:
    ranks, n_jobs = FARM_CELL[size]
    cells = []
    for churn in (0, 1):
        for policy in POLICIES:
            spec = FarmSpec(n_jobs=n_jobs, policy=policy, chunk=FARM_CHUNK, seed=seed)
            cspec = ClusterSpec(n_nodes=ranks, seed=seed, name=f"bench-farm-{policy}")
            load = failure = None
            if churn:
                # kill one worker's node at cycle 2, load another 3..5
                failure = FailureScript(cycle_faults=[
                    CycleFault(cycle=2, node=ranks // 4, action="kill")])
                load = LoadScript(cycle_triggers=[
                    CycleTrigger(cycle=3, node=ranks // 2, action="start", count=2),
                    CycleTrigger(cycle=5, node=ranks // 2, action="stop", count=2)])
            label = f"farm:{policy}:churn{churn}"

            def run(observe, sanitize, label=label, spec=spec, cspec=cspec,
                    load=load, failure=failure) -> CellRun:
                cluster = Cluster(_switches(cspec, observe, sanitize))
                result = run_farm(cluster, spec, load_script=load,
                                  failure_script=failure)
                return CellRun(
                    label=label,
                    ranks=cluster.n_nodes,
                    sim={
                        "label": label,
                        "wall_time": result.wall_time,
                        "jobs_done": result.jobs_done,
                        "jobs_per_sec": result.jobs_per_sec,
                        "digest": result.digest,
                        "requeued": result.n_requeued,
                        "duplicates": result.duplicates,
                        **_cluster_sim(cluster),
                    },
                    sim_time=spec.n_jobs / result.jobs_per_sec,
                    obs=cluster.obs,
                )

            cells.append(Cell(label, run))
    return cells


def _farm_baseline_rates(ranks: int, n_jobs: int) -> dict:
    """The checked-in simulated jobs/sec rows for this cell, keyed by
    our cell label."""
    rows = json.loads(FARM_BASELINE.read_text())["data"]
    return {
        f"farm:{r['policy']}:churn{r['churn']}": r["jobs_per_sec"]
        for r in rows if r["ranks"] == ranks and r["n_jobs"] == n_jobs
    }


def _farm_verify(runs, seed, size, oracle) -> list[Check]:
    ranks, n_jobs = FARM_CELL[size]
    expected = farm_digest(reference_results(n_jobs, seed))
    # the checked-in rows were produced at seed 0
    baseline = _farm_baseline_rates(ranks, n_jobs) if seed == 0 else {}
    checks = []
    for run in runs:
        ok = run.sim["jobs_done"] == n_jobs and run.sim["digest"] == expected
        detail = f"jobs_done={run.sim['jobs_done']}"
        if baseline:
            rate = round(run.sim["jobs_per_sec"], 3)
            ok = ok and rate == baseline[run.label]
            detail += f" jobs_per_sec={rate} baseline={baseline[run.label]}"
        checks.append(Check(run.label, ok, detail))
    return checks


def _farm_counters(runs) -> dict:
    rate = {r.label: r.sim["jobs_per_sec"] for r in runs}
    return {
        "farm.jobs_per_sim_s.self": rate["farm:self:churn0"],
        "farm.jobs_per_sim_s.rma": rate["farm:rma:churn0"],
        "farm.rma_over_self": rate["farm:rma:churn0"] / rate["farm:self:churn0"],
        "farm.requeued": sum(r.sim["requeued"] for r in runs),
        "farm.duplicates": sum(r.sim["duplicates"] for r in runs),
    }


# ---------------------------------------------------------------------------
# redist-churn: the write side of the data plane
# ---------------------------------------------------------------------------

#: (nodes, grid n, iterations)
CHURN_SIZE = {"full": (16, 1024, 160), "smoke": (8, 512, 80)}
CHURN_SPEC = RuntimeSpec(allow_removal=False, grace_period=2,
                         post_redist_period=3, daemon_interval=0.005)


def _churn_script(n_nodes: int, iters: int) -> LoadScript:
    """Two competitors start on one node every 10 cycles (10..140 at
    full size), stop 10 cycles later, and hop +3 nodes each time."""
    triggers = []
    for k, cycle in enumerate(range(10, iters - 10, 10)):
        node = (3 * k) % n_nodes
        triggers.append(CycleTrigger(cycle=cycle, node=node, action="start", count=2))
        triggers.append(CycleTrigger(cycle=cycle + 10, node=node, action="stop", count=2))
    return LoadScript(cycle_triggers=triggers)


def _churn_cfg(seed: int, size: str) -> JacobiConfig:
    _, n, iters = CHURN_SIZE[size]
    return JacobiConfig(n=n, iters=iters, materialized=True, collect=True, seed=seed)


def _churn_setup(seed: int, size: str) -> list[Cell]:
    n_nodes = CHURN_SIZE[size][0]
    cfg = _churn_cfg(seed, size)
    cspec = pentium_cluster(n_nodes, seed=seed)
    script = _churn_script(n_nodes, cfg.iters)

    def run(observe: bool, sanitize: bool) -> CellRun:
        cluster = Cluster(_switches(cspec, observe, sanitize))
        result = run_program(cluster, jacobi_program, cfg, spec=CHURN_SPEC,
                             adaptive=True, load_script=script)
        grids = [r["grid"] for r in result.per_rank]
        return _app_run("churn", result, cluster, payload=grids)

    return [Cell("churn", run)]


def _churn_verify(runs, seed, size, oracle) -> list[Check]:
    (run,) = runs
    grids = run.payload
    same = all(np.array_equal(g, grids[0]) for g in grids[1:])
    # the grid's hash joins the digest here (hashing 8 MiB per rank is
    # verification work, so it stays out of the timed section)
    run.sim["grid_sha256"] = hashlib.sha256(
        np.ascontiguousarray(grids[0]).tobytes()).hexdigest()
    cfg = _churn_cfg(seed, size)
    # one redistribution per load hop is the point of the workload:
    # at least 10 of the 15 possible at full size
    ok = same and run.redistributions >= cfg.iters // 16
    detail = f"ranks_agree={same} redistributions={run.redistributions}"
    if oracle:
        exact = np.array_equal(grids[0], jacobi_reference(initial_grid(cfg), cfg.iters))
        ok = ok and exact
        detail += f" bitwise_equal_oracle={exact}"
    run.payload = None
    return [Check("churn", ok, detail)]


WORKLOADS = {w.name: w for w in (
    Workload("removal-256", _removal_setup, _removal_verify, _removal_counters),
    Workload("fig4-grid", _fig4_setup, _fig4_verify, _fig4_counters),
    Workload("farm-64", _farm_setup, _farm_verify, _farm_counters),
    Workload("redist-churn", _churn_setup, _churn_verify),
)}
