"""End-to-end benchmark with per-layer host-time attribution.

    python3 benchmarks/e2e/run.py [--seed 0] [--reps 5] [--workload NAME] [--out FILE]

runs the four workloads of workloads.py, checks every simulated result
against its oracle, prints every metric by name with its unit and
(with ``--out``) writes one JSON.  Each (workload, rep) runs in its own
fresh child process.  Per workload: a throw-away child that warms
``.pyc`` files and the page cache, then five that only build the inputs
(``setup_s``); timed reps with every tap off, one
at a time with nothing else running (the end-to-end metrics); then one
host-traced (cProfile) run on a second CPU beside one observed
(dynscope) run and, on two workloads, one sanitized run; the layer
probes run once, alone — these give per-layer numbers only.

The metric names, units, directions and bounds live in BENCHMARK.json
at the repository root; this file reads them from there.

Driver contract (BENCHMARK.json's ``command``)::

    run.py --workload NAME --seed N --seconds S --trace 0|1

``--seconds`` time-boxes the timed reps (they repeat until their summed
timed sections reach S; at least one).  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics (one timed rep
plus the traced runs), as one JSON object on the last stdout line.

Exit status: 0 when every check passed, 1 when any failed, 2 on usage
or environment errors.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: the benchmark measures defaults: any of these in the caller's
#: environment would silently change what is measured
GUARDED_ENV = ("DYNMPI_SANITIZE", "DYNMPI_OBS", "DYNMPI_PERTURB",
               "DYNMPI_KERNEL", "DYNMPI_BENCH_SCALE")

#: a child that runs longer counts as failed (the slowest stage, the
#: host-traced removal-256 run, takes about 75 s)
CHILD_TIMEOUT_S = 170
#: set-up is short and noisy: every run reports the median of this
#: many child start-ups
SETUP_SAMPLES = 5
DEFAULT_REPS = 5
MIN_COVERAGE = 0.90
#: Children are pinned to one CPU each.  Left to the scheduler, a child
#: that starts after the machine idled lands on a cold core and reads
#: 40 % slower for its first seconds (measured: set-up 0.24 s instead
#: of 0.165 s for eight children in a row); pinned, it does not.
#: MAIN_CPU runs everything that is timed; SIDE_CPU only ever runs the
#: host-traced child, beside the observed and sanitized ones.
_CPUS = sorted(os.sched_getaffinity(0))
MAIN_CPU, SIDE_CPU = _CPUS[-1], _CPUS[0]
#: the sanitized run is taken on the two short workloads only: on the
#: other two it would add minutes for one overhead ratio
SANITIZED_WORKLOADS = ("farm-64", "redist-churn")


def start(stage: str, workload: str | None, *, seed: int, size: str,
          oracle: bool = False, cpu: int = MAIN_CPU) -> subprocess.Popen:
    """Start one child stage (see child.py), pinned to ``cpu``."""
    cmd = [sys.executable, str(HERE / "child.py"), "--stage", stage,
           "--seed", str(seed), "--size", size]
    if workload is not None:
        cmd += ["--workload", workload]
    if oracle:
        cmd.append("--oracle")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd += ["--t0", repr(time.perf_counter())]
    return subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))


def finish(proc: subprocess.Popen) -> dict | None:
    """Wait for a child; its JSON, or None when it crashed or timed
    out (stderr is passed through)."""
    what = " ".join(proc.args[2:])
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"e2e: child timed out after {CHILD_TIMEOUT_S}s: {what}", file=sys.stderr)
        return None
    if proc.returncode != 0 or not stdout.strip():
        print(f"e2e: child failed ({proc.returncode}): {what}\n{stderr}",
              file=sys.stderr)
        return None
    return json.loads(stdout.splitlines()[-1])


def spawn(stage: str, workload: str | None, **kwargs) -> dict | None:
    """Run one child stage to completion, alone."""
    return finish(start(stage, workload, **kwargs))


def summarize(values: list[float]) -> dict:
    """Median, range, quartiles and sample count of one metric."""
    out = {"value": statistics.median(values), "min": min(values),
           "max": max(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


class Tally:
    """Checks attempted / failed for one workload, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {detail}")

    def add_rep(self, stage: str, rep: dict | None, base: dict | None) -> None:
        """Count one child's checks; a dead child is one failed check,
        and so is a run whose simulated outputs differ from ``base``
        (seeded runs are deterministic, taps must not move the model)."""
        if rep is None:
            self.add(stage, False, "child crashed or timed out")
            return
        for label, ok, detail in rep["checks"]:
            self.add(f"{stage}:{label}", ok, detail)
        if base is not None and rep is not base:
            same = (rep.get("sim_digest") == base.get("sim_digest")
                    and rep.get("counters") == base.get("counters"))
            self.add(f"{stage}:determinism", same,
                     "sim_digest/counters differ from the first timed run")


def timed_runs(name: str, tally: Tally, *, seed: int, size: str,
               reps: int | None, seconds: float | None) -> dict:
    """The timed protocol; returns the end-to-end summaries plus the
    first rep (``base``: digest and exact counters)."""
    # setup_s comes from children that only build the inputs, run back
    # to back after one throw-away, so it does not depend on --reps
    setups = [spawn("setup", name, seed=seed, size=size)
              for _ in range(1 + SETUP_SAMPLES)][1:]
    tally.add("setup", None not in setups, "child crashed or timed out")
    samples: list[dict] = []
    base = None
    measured = 0.0
    while True:
        rep = spawn("timed", name, seed=seed, size=size, oracle=base is None)
        base = base or rep
        tally.add_rep("timed", rep, base)
        if rep is None:
            break
        samples.append(rep)
        measured += rep["wall_s"]
        if (len(samples) >= reps) if reps is not None else (measured >= seconds):
            break
    if not samples or None in setups:
        return {"base": None, "end_to_end": {}}
    return {
        "base": base,
        "end_to_end": {
            "wall_s": summarize([r["wall_s"] for r in samples]),
            "setup_s": summarize([r["setup_s"] for r in setups]),
            "peak_rss_mb": summarize([r["peak_rss_mb"] for r in samples]),
        },
    }


def traced_runs(name: str, tally: Tally, timed: dict, probes: dict | None, *,
                seed: int, size: str) -> tuple[dict, set]:
    """The per-layer protocol; returns ``{metric: value}`` and the
    names of the metrics that must repeat exactly run to run."""
    base = timed["base"]
    wall = timed["end_to_end"]["wall_s"]["value"]
    out = dict(base["counters"])
    exact = set(out) | {"mpi.collectives.probe_allgather_events"}
    out["simcluster.kernel.us_per_event"] = (
        wall / out["simcluster.kernel.events"] * 1e6)

    # The host-traced child is the long pole (3x the untraced run), so
    # it runs on SIDE_CPU while the observed and sanitized children run
    # one after the other on MAIN_CPU.  These runs give per-layer
    # numbers only; the timed reps above always run alone.
    profiling = start("profile", name, seed=seed, size=size, cpu=SIDE_CPU)
    try:
        observed = spawn("observed", name, seed=seed, size=size)
        san = (spawn("sanitized", name, seed=seed, size=size)
               if name in SANITIZED_WORKLOADS else None)
    except BaseException:
        profiling.kill()
        profiling.communicate()
        raise
    profile = finish(profiling)

    tally.add_rep("profile", profile, base)
    if profile is not None:
        named = 0.0
        for layer, row in profile["layers"].items():
            out[f"{layer}.self_s"] = row["self_s"]
            out[f"{layer}.calls"] = row["calls"]
            exact.add(f"{layer}.calls")
            named += row["self_s"] if layer != "other" else 0.0
        out["trace.coverage"] = named / profile["wall_s"]
        out["trace.overhead_ratio"] = profile["wall_s"] / wall
        tally.add("profile:coverage", out["trace.coverage"] >= MIN_COVERAGE,
                  f"trace.coverage {out['trace.coverage']:.3f} < {MIN_COVERAGE}")

    tally.add_rep("observed", observed, base)
    if observed is not None:
        out.update(observed["obs"])
        exact.update(observed["obs"])
        out["obs.overhead_ratio"] = observed["wall_s"] / wall

    if name in SANITIZED_WORKLOADS:
        tally.add_rep("sanitized", san, base)
        if san is not None:
            out["analysis.sanitizer.overhead_ratio"] = san["wall_s"] / wall

    tally.add("probes", probes is not None, "child crashed or timed out")
    if probes is not None:
        out.update(probes["probes"])
    return out, exact


def measure(name: str, spec: dict, probes: dict | None, *, seed: int, size: str,
            reps: int | None, seconds: float | None, trace: bool) -> dict:
    """Everything the benchmark knows about one workload."""
    tally = Tally()
    timed = timed_runs(name, tally, seed=seed, size=size, reps=reps, seconds=seconds)
    result: dict = {"end_to_end": timed["end_to_end"], "per_layer": {}}
    base = timed["base"]
    if base is not None:
        result["sim_digest"] = base.get("sim_digest")
        if trace and "counters" in base:
            layer, exact = traced_runs(name, tally, timed, probes, seed=seed,
                                       size=size)
            result["exact"] = sorted(exact)
            layer["failed_frac"] = len(tally.failures) / tally.attempted
            # a metric this workload does not exercise reads 0
            result["per_layer"] = {
                m["name"]: layer.get(m["name"], 0) for m in spec["per_layer"]}
    result.update(attempted=tally.attempted, failed=len(tally.failures),
                  failures=tally.failures)
    return result


def provenance(seed: int, size: str) -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"   # a source checkout without git metadata
    return {
        "nproc": os.cpu_count(),
        "loadavg_1min": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_commit": commit,
        "seed": seed,
        "size": size,
    }


def print_metrics(name: str, result: dict, units: dict) -> None:
    for metric, stats in result["end_to_end"].items():
        print(f"{name:<13} {metric:<44} {stats['value']:>16.6g} {units[metric]}"
              f"  [min {stats['min']:.4g} max {stats['max']:.4g} n {stats['n']}]")
    for metric, value in result["per_layer"].items():
        print(f"{name:<13} {metric:<44} {value:>16.6g} {units[metric]}")
    print(f"{name:<13} {'sim_digest':<44} {result.get('sim_digest')}")
    print(f"{name:<13} checks: {result['attempted']} attempted, "
          f"{result['failed']} failed")
    for failure in result["failures"]:
        print(f"{name:<13} FAILED {failure}")


def selfcheck(first: dict, second: dict, spec: dict) -> list[str]:
    """Two runs of the same tree must agree: end-to-end metrics within
    their bounds, everything exact identically.  Prints the spread."""
    problems = []
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w in first:
        a, b = first[w], second[w]
        for metric, bound in bounds.items():
            va, vb = a["end_to_end"][metric]["value"], b["end_to_end"][metric]["value"]
            spread = abs(vb - va) / va
            print(f"selfcheck {w:<13} {metric:<12} {va:.6g} vs {vb:.6g} "
                  f"spread {spread:.2%} (bound {bound:.0%})")
            if spread > bound:
                problems.append(f"{w} {metric}: spread {spread:.2%} > {bound:.0%}")
        if a.get("sim_digest") != b.get("sim_digest"):
            problems.append(f"{w} sim_digest differs")
        for metric in a.get("exact", ()):
            if a["per_layer"][metric] != b["per_layer"][metric]:
                problems.append(f"{w} {metric}: {a['per_layer'][metric]} != "
                                f"{b['per_layer'][metric]}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, help=f"timed reps (default {DEFAULT_REPS})")
    parser.add_argument("--seconds", type=float,
                        help="time-box the timed reps instead of counting them")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver mode: print end-to-end (0) or per-layer (1) "
                             "metrics of --workload as one JSON line")
    parser.add_argument("--out", type=pathlib.Path, help="write the full result JSON")
    parser.add_argument("--smoke", action="store_true", help="small sizes (harness test)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="measure twice and compare the two runs")
    args = parser.parse_args(argv)

    leaked = [v for v in GUARDED_ENV if v in os.environ]
    if leaked:
        print(f"e2e: refusing to run with {', '.join(leaked)} set: the benchmark "
              f"measures defaults", file=sys.stderr)
        return 2
    if not (SRC / "repro").is_dir():
        print(f"e2e: no source tree at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    names = [args.workload] if args.workload else list(why)
    if args.workload not in (None, *why):
        parser.error(f"unknown workload {args.workload!r} (have {', '.join(why)})")
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")
    if args.reps is not None and (args.reps < 1 or args.seconds is not None):
        parser.error("--reps must be >= 1 and excludes --seconds")

    size = "smoke" if args.smoke else "full"
    reps = args.reps
    if args.trace == 1:
        reps = 1          # the traced runs are the measurement
    elif reps is None and args.seconds is None:
        reps = DEFAULT_REPS
    seconds = None if reps is not None else args.seconds
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    trace = args.trace != 0

    def run_all() -> dict:
        # the probes run no workload: one child serves every workload
        probes = spawn("probes", None, seed=args.seed, size=size) if trace else None
        return {w: measure(w, spec, probes, seed=args.seed, size=size, reps=reps,
                           seconds=seconds, trace=trace) for w in names}

    results = run_all()
    for w in names:
        print_metrics(w, results[w], units)
    failed = sum(r["failed"] for r in results.values())
    problems: list[str] = []
    if args.selfcheck and not failed:
        second = run_all()
        failed = sum(r["failed"] for r in second.values())
        problems = ([f"second run: {w} {f}" for w in names for f in second[w]["failures"]]
                    or selfcheck(results, second, spec))
        for p in problems:
            print(f"selfcheck FAILED {p}")
        print(f"selfcheck: {'ok' if not problems else f'{len(problems)} problems'}")

    if args.out is not None:
        doc = {"benchmark": "e2e", "provenance": provenance(args.seed, size),
               "workloads": {w: {"why": why[w], **results[w]} for w in names}}
        args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"[written to {args.out}]")

    if args.trace is not None:
        r = results[args.workload]
        if args.trace == 0:
            metrics = {m: {"value": s["value"], "unit": units[m]}
                       for m, s in r["end_to_end"].items()}
        else:
            metrics = {m: {"value": v, "unit": units[m]}
                       for m, v in r["per_layer"].items()}
        if len(metrics) != len(spec["end_to_end" if args.trace == 0 else "per_layer"]):
            return 1      # a dead child left no result to report
        print(json.dumps({"correct": r["failed"] == 0, "attempted": r["attempted"],
                          "failed": r["failed"], "metrics": metrics}))
    return 1 if failed or problems else 0


if __name__ == "__main__":
    sys.exit(main())
