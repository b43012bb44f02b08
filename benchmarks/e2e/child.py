"""One stage of one workload in one fresh process (spawned by run.py).

Stages::

    setup      build the workload's inputs and exit (warm-up, setup_s samples)
    timed      all taps off — the end-to-end numbers and exact counters
    profile    the same run under cProfile -> per-layer self time / calls
    observed   dynscope on -> its counters and simulated-time attribution
    sanitized  communication sanitizer on -> its host cost
    probes     the layer probes (probes.py); no workload is run

The process prints one JSON object as its last stdout line.  ``--t0``
is the parent's ``time.perf_counter()`` just before the spawn (the
monotonic clock is system-wide), so ``setup_s`` covers interpreter
start, imports and input construction.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import resource
import sys
import time
import traceback

from layers import attribute_profile
from workloads import WORKLOADS, CellRun, Check, obs_summary, sim_digest

STAGES = ("setup", "timed", "profile", "observed", "sanitized", "probes")


def run_cells(cells, *, observe: bool, sanitize: bool, profiler=None):
    """Run every cell; returns ``(runs, wall_s, obs)``.

    ``wall_s`` sums the per-cell timers, so the dynscope summaries
    taken between cells of an observed run stay outside it.  A cell
    that raises becomes an errored :class:`CellRun`: the batch keeps
    going and the failure is counted, not propagated.
    """
    runs, wall, obs = [], 0.0, {}
    for cell in cells:
        t0 = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            run = cell.run(observe, sanitize)
        except Exception:  # boundary: one broken cell must not hide the others
            run = CellRun(cell.label, ranks=0, sim={}, error=traceback.format_exc())
        finally:
            if profiler is not None:
                profiler.disable()
        wall += time.perf_counter() - t0
        if run.obs is not None:
            for name, value in obs_summary(run.obs).items():
                obs[name] = obs.get(name, 0) + value
            run.obs = None
        runs.append(run)
    return runs, wall, obs


def counters_of(workload, runs) -> dict:
    """Exact counters of one run (they repeat run to run)."""
    all_runs, runs = runs, [r for r in runs if not r.companion]
    events = sum(r.sim["n_events"] for r in runs)
    messages = sum(r.sim["n_messages"] for r in runs)
    out = {
        "sim_time_s": sum(r.sim_time for r in runs if r.sim_time is not None),
        "simcluster.kernel.events": events,
        "simcluster.kernel.events_per_rank": events / sum(r.ranks for r in runs),
        "simcluster.kernel.events_per_message": events / messages,
        "simcluster.network.messages": messages,
        "simcluster.network.bytes": sum(r.sim["n_bytes"] for r in runs),
        "core.runtime.cycles": sum(r.cycles for r in runs),
        "core.runtime.redistributions": sum(r.redistributions for r in runs),
        "core.runtime.drops": sum(r.drops for r in runs),
    }
    out.update(workload.counters(all_runs))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stage", choices=STAGES, required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--oracle", action="store_true",
                        help="also run the expensive sequential oracle")
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)

    if args.stage == "probes":
        # imported here: the probes pull in modules no workload needs,
        # which would otherwise inflate every stage's setup_s
        from probes import run_probes

        print(json.dumps({"probes": run_probes()}))
        return 0

    workload = WORKLOADS[args.workload]
    cells = workload.setup(args.seed, args.size)
    out: dict = {"setup_s": time.perf_counter() - args.t0}
    if args.stage == "setup":
        print(json.dumps(out))
        return 0

    profiler = cProfile.Profile(builtins=False) if args.stage == "profile" else None
    runs, wall, obs = run_cells(
        cells, observe=args.stage == "observed",
        sanitize=args.stage == "sanitized", profiler=profiler)
    out["wall_s"] = wall
    # before verify: the oracle's arrays are not the workload's memory
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if any(r.error for r in runs):
        # every cell counts as attempted, the errored ones as failed;
        # oracles and counters need the full batch and are skipped
        checks = [Check(r.label, r.error is None, r.error or "not verified")
                  for r in runs]
    else:
        checks = workload.verify(runs, args.seed, args.size, args.oracle)
        # after verify: redist-churn's grid hash joins the digest there
        out["sim_digest"] = sim_digest(runs)
        out["counters"] = counters_of(workload, runs)
    out["checks"] = [[c.label, c.ok, c.detail] for c in checks]
    if obs:
        out["obs"] = obs
    if profiler is not None:
        profiler.create_stats()
        out["layers"] = attribute_profile(profiler.stats)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
