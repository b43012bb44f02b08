"""CI gate: dynscope must be free when disabled and pure when enabled.

Runs the Figure 4 Jacobi cell (the bench the paper's headline numbers
come from) in three guises and applies two checks:

1. **Baseline drift** — with observability off (the default), the
   simulated times must match the checked-in baseline
   ``results/BENCH_fig4_obs_baseline.json`` within
   ``ALLOWED_OVERHEAD``.  The simulator is deterministic, so any
   drift means instrumentation leaked *simulated* cost into the
   model — the regression this gate exists to catch.  Gating on
   simulated rather than host time keeps the check machine-
   independent (same reasoning as ``check_regression.py``).

2. **Observer purity** — re-running the identical cell with
   ``DYNMPI_OBS=1`` must produce byte-for-byte equal simulated times.
   Recording may cost host time, but it must never move the model.

The host-time ratio between the two runs is printed for information
(it is the "obs-disabled overhead" in human terms) but not gated:
wall-clock on a shared CI runner is noise.

Usage (what the CI perf-smoke job runs)::

    python benchmarks/check_obs_overhead.py
    python benchmarks/check_obs_overhead.py --write-baseline  # refresh
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

RESULTS = pathlib.Path(__file__).parent / "results"
BASELINE = RESULTS / "BENCH_fig4_obs_baseline.json"

#: relative simulated-time drift tolerated against the baseline
ALLOWED_OVERHEAD = 0.03

#: the measured cell: Figure 4, Jacobi, smoke scale
SCALE = 0.35
NODES = (2, 4)


def _run_cell() -> tuple[list[dict], float]:
    """One obs-state run of the cell; returns (rows, host_seconds)."""
    from repro.experiments import run_figure4

    t0 = time.perf_counter()
    rows = run_figure4(apps=("jacobi",), nodes=NODES, scale=SCALE)
    elapsed = time.perf_counter() - t0
    return [
        {"app": r.app, "n_nodes": r.n_nodes, "t_dedicated": r.t_dedicated,
         "t_noadapt": r.t_noadapt, "t_dynmpi": r.t_dynmpi}
        for r in rows
    ], elapsed


def _with_obs(enabled: bool) -> tuple[list[dict], float]:
    old = os.environ.get("DYNMPI_OBS")
    os.environ["DYNMPI_OBS"] = "1" if enabled else "0"
    try:
        return _run_cell()
    finally:
        if old is None:
            del os.environ["DYNMPI_OBS"]
        else:
            os.environ["DYNMPI_OBS"] = old


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-baseline", action="store_true",
                        help=f"regenerate {BASELINE.name} and exit")
    args = parser.parse_args(argv)

    rows_off, host_off = _with_obs(False)
    if args.write_baseline:
        RESULTS.mkdir(exist_ok=True)
        BASELINE.write_text(json.dumps(
            {"name": "fig4_obs_baseline", "scale": SCALE,
             "nodes": list(NODES), "rows": rows_off},
            indent=2, sort_keys=True) + "\n")
        print(f"obs-overhead: baseline written to {BASELINE}")
        return 0

    if not BASELINE.exists():
        print(f"obs-overhead: missing {BASELINE} "
              f"(run with --write-baseline)", file=sys.stderr)
        return 2
    baseline = json.loads(BASELINE.read_text())
    if baseline.get("scale") != SCALE or tuple(baseline.get("nodes", ())) \
            != NODES:
        print("obs-overhead: baseline cell does not match this script's "
              "(scale, nodes); refresh with --write-baseline",
              file=sys.stderr)
        return 2

    failed = False
    for got, want in zip(rows_off, baseline["rows"]):
        for key in ("t_dedicated", "t_noadapt", "t_dynmpi"):
            drift = abs(got[key] - want[key]) / want[key]
            status = "ok" if drift <= ALLOWED_OVERHEAD else "REGRESSED"
            failed |= status == "REGRESSED"
            print(f"obs-overhead: {got['app']} n={got['n_nodes']} {key} "
                  f"{got[key]:.4f}s vs baseline {want[key]:.4f}s "
                  f"(drift {drift * 100:.2f}%, max "
                  f"{ALLOWED_OVERHEAD * 100:.0f}%) {status}")

    rows_on, host_on = _with_obs(True)
    if rows_on != rows_off:
        print("obs-overhead: PURITY VIOLATION — enabling DYNMPI_OBS "
              "changed simulated times:", file=sys.stderr)
        for a, b in zip(rows_off, rows_on):
            if a != b:
                print(f"  off={a}\n  on ={b}", file=sys.stderr)
        failed = True
    else:
        print("obs-overhead: purity ok (obs on/off simulated times "
              "identical)")
    print(f"obs-overhead: host time off={host_off:.2f}s on={host_on:.2f}s "
          f"(recording cost {(host_on / host_off - 1) * 100:+.1f}%, "
          f"informational)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
