"""The perf-smoke gate: one table, one loop.

Every bench in :data:`GATES` whose smoke run is present
(``results/BENCH_<name>_smoke.json``) is compared with its checked-in
full-grid baseline ``results/BENCH_<name>.json`` at the cells the two
share; a smoke cell may not fall below ``baseline / tolerance``::

    DYNMPI_PLAN_SMOKE=1 python -m pytest benchmarks/bench_plan_scaling.py -q
    python benchmarks/check_regression.py

Exit 0 all cells hold, 1 a cell regressed or a claim is violated, 2
nothing to gate (no smoke file, missing baseline, no shared cell).

Why these values: ``plan_scaling`` gates a *ratio* of two code paths
timed on the same host (interval plane vs set oracle), which keeps the
check machine-independent — a slow runner scales numerator and
denominator alike — at a loose 2x.  ``farm_throughput`` gates
*simulated* jobs/sec, a pure function of the code: the smoke bench
itself already asserts each of its rows equals the baseline's exactly,
so the 1/1.25 floor here only backs that up; its row also re-asserts
the headline claim on the baseline itself: RMA self-scheduling beats
master-dispatch self-scheduling at the largest rank count.
"""

from __future__ import annotations

import json
import pathlib
import sys

RESULTS = pathlib.Path(__file__).parent / "results"


def _rma_beats_self(baseline: dict) -> tuple:
    top = max(ranks for (_, ranks, _, _) in baseline)
    best = {policy: max(v for (p, r, _, churn), v in baseline.items()
                        if p == policy and r == top and churn == 0)
            for policy in ("rma", "self")}
    return best["rma"] > best["self"], (
        f"rma {best['rma']:.0f} vs self {best['self']:.0f} jobs/sec at "
        f"{top} ranks ({best['rma'] / best['self']:.2f}x)")


#: bench name -> (rows -> {cell: gated value}, tolerance, claim on baseline)
GATES = {
    "plan_scaling": (
        lambda rows: {(c["n"], c["ranks"]): c["speedup"] for c in rows},
        2.0, None),
    "farm_throughput": (
        lambda rows: {(c["policy"], c["ranks"], c["n_jobs"], c["churn"]):
                      c["jobs_per_sec"] for c in rows},
        1.25, _rma_beats_self),
}


def _gate(name: str) -> int:
    cells, tolerance, claim = GATES[name]
    base_path = RESULTS / f"BENCH_{name}.json"
    if not base_path.exists():
        print(f"regression[{name}]: missing {base_path}", file=sys.stderr)
        return 2
    baseline = cells(json.loads(base_path.read_text())["data"])
    smoke_path = RESULTS / f"BENCH_{name}_smoke.json"
    smoke = cells(json.loads(smoke_path.read_text())["data"])
    shared = sorted(set(baseline) & set(smoke))
    if not shared:
        print(f"regression[{name}]: baseline and smoke run share no cell",
              file=sys.stderr)
        return 2
    rc = 0
    for cell in shared:
        floor = baseline[cell] / tolerance
        ok = smoke[cell] >= floor
        rc |= not ok
        print(f"regression[{name}]: {cell} {smoke[cell]:.2f} vs baseline "
              f"{baseline[cell]:.2f} (floor {floor:.2f}) "
              f"{'ok' if ok else 'REGRESSED'}")
    if claim is not None:
        ok, text = claim(baseline)
        rc |= not ok
        print(f"regression[{name}]: {text} {'ok' if ok else 'VIOLATED'}")
    return rc


def main() -> int:
    present = [name for name in GATES
               if (RESULTS / f"BENCH_{name}_smoke.json").exists()]
    if not present:
        print(f"regression: no BENCH_*_smoke.json under {RESULTS}",
              file=sys.stderr)
        return 2
    return max(_gate(name) for name in present)


if __name__ == "__main__":
    sys.exit(main())
