"""Farm throughput: jobs/sec per loop-scheduling policy.

The farm's headline perf claim: decentralized RMA self-scheduling
(workers claim chunks off a shared loop counter with one-sided
``fetch_and_op``) beats master-dispatch self-scheduling on jobs/sec,
because the master's CPU stops being the dispatch bottleneck — each
chunk costs the master-node NIC one one-sided round trip instead of a
recv + a dispatched send through the master's process.

Grid: every policy x ranks x {no churn, churn}.  The churn column runs
the same farm under a worker kill at cycle 2 plus a transient
competing-load burst (park/readmit) — elasticity overhead is part of
the measured number, and every cell asserts the completed-result
digest against the computed reference before publishing a rate.

``jobs/sec`` is simulated throughput (jobs / simulated seconds), so
cells are machine-independent and byte-stable: the checked-in
``results/BENCH_farm_throughput.json`` is an exact baseline, not a
noisy timing.

``DYNMPI_FARM_SMOKE=1`` restricts the grid to the small shared cells,
asserts every row equals its checked-in baseline row exactly (a
simulated rate is a pure function of the code, so any drift is a model
change) and writes ``results/BENCH_farm_throughput_smoke.json``, which
``check_regression.py`` also gates against the baseline (CI perf-smoke
job).
"""

from __future__ import annotations

import json
import os
import pathlib

from repro.config import ClusterSpec
from repro.farm import POLICIES, FarmSpec, farm_digest, reference_results, run_farm
from repro.resilience import CycleFault, FailureScript
from repro.simcluster import Cluster, CycleTrigger, LoadScript

SMOKE = os.environ.get("DYNMPI_FARM_SMOKE", "") not in ("", "0")

#: (ranks, n_jobs) grid cells; the small cell is shared between the
#: full baseline and the smoke run so the regression gate has exact
#: cells to compare
SMALL_CELL = (16, 8_000)
FULL_CELLS = (SMALL_CELL, (64, 100_000))
CELLS = (SMALL_CELL,) if SMOKE else FULL_CELLS
CHUNK = 16
SEED = 0
BASELINE = pathlib.Path(__file__).parent / "results" / "BENCH_farm_throughput.json"


def _row_key(row: dict) -> tuple:
    return row["policy"], row["ranks"], row["n_jobs"], row["churn"]


def _churn_scripts(ranks: int):
    """Deterministic churn for a ``ranks``-node cluster: kill one
    worker's node at cycle 2, load another from cycle 3 to 5."""
    kill_node = ranks // 4
    load_node = ranks // 2
    failure = FailureScript(cycle_faults=[
        CycleFault(cycle=2, node=kill_node, action="kill"),
    ])
    load = LoadScript(cycle_triggers=[
        CycleTrigger(cycle=3, node=load_node, action="start", count=2),
        CycleTrigger(cycle=5, node=load_node, action="stop", count=2),
    ])
    return load, failure


def _run_cell(policy: str, ranks: int, n_jobs: int, churn: bool) -> dict:
    spec = FarmSpec(n_jobs=n_jobs, policy=policy, chunk=CHUNK, seed=SEED)
    cluster = Cluster(ClusterSpec(n_nodes=ranks, seed=SEED,
                                  name=f"bench-farm-{policy}"))
    load, failure = _churn_scripts(ranks) if churn else (None, None)
    result = run_farm(cluster, spec, load_script=load,
                      failure_script=failure)
    expected = farm_digest(reference_results(n_jobs, SEED))
    assert result.jobs_done == n_jobs, (policy, ranks, churn)
    assert result.digest == expected, (policy, ranks, churn)
    return {
        "policy": policy,
        "ranks": ranks,
        "n_jobs": n_jobs,
        "churn": int(churn),
        "jobs_per_sec": round(result.jobs_per_sec, 3),
        "wall_time": round(result.wall_time, 9),
        "requeued": result.n_requeued,
        "duplicates": result.duplicates,
    }


def test_farm_throughput(record_table):
    cells = []
    for ranks, n_jobs in CELLS:
        for churn in (False, True):
            for policy in POLICIES:
                cells.append(_run_cell(policy, ranks, n_jobs, churn))

    lines = [
        "farm throughput (simulated jobs/sec; digest-checked)",
        f"{'policy':<11} {'ranks':>5} {'jobs':>7} {'churn':>5} "
        f"{'jobs/sec':>10} {'requeued':>8}",
    ]
    for c in cells:
        lines.append(
            f"{c['policy']:<11} {c['ranks']:>5} {c['n_jobs']:>7} "
            f"{c['churn']:>5} {c['jobs_per_sec']:>10.0f} {c['requeued']:>8}"
        )
    for ranks, n_jobs in CELLS:
        rates = {c["policy"]: c["jobs_per_sec"] for c in cells
                 if c["ranks"] == ranks and not c["churn"]}
        lines.append(
            f"rma vs self @ {ranks} ranks: "
            f"{rates['rma'] / rates['self']:.2f}x"
        )
        # the acceptance claim: decentralized beats master dispatch
        assert rates["rma"] > rates["self"], (ranks, rates)

    if SMOKE:
        baseline = {_row_key(r): r for r in json.loads(BASELINE.read_text())["data"]}
        for c in cells:
            assert c == baseline[_row_key(c)], (c, baseline[_row_key(c)])

    name = "farm_throughput_smoke" if SMOKE else "farm_throughput"
    record_table(name, "\n".join(lines), data=cells)
