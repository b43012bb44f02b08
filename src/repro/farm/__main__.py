"""dynfarm CLI: ``python -m repro.farm``.

Runs one farm scenario end to end and prints a one-line summary, or —
with ``--trace FILE`` — a dynscope trace of the run (Chrome Trace
Event JSON by default, ``--format jsonl`` for the flat log).
Deterministic: identical invocations produce byte-identical traces
(``tests/test_farm_cli.py`` exports twice and compares).  Exit 0 when
every job completed with the reference digest, 1 on a mismatch, 2 on
bad input: one ``farm: ...`` line on stderr (:mod:`repro.cli`).

Examples::

    python -m repro.farm --policy rma --jobs 2000 --nodes 16
    python -m repro.farm --policy self --crash 3@2 --perturb 7
    python -m repro.farm --policy guided --trace farm.json
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from ..cli import ArgumentParser, cli_entry
from ..errors import ConfigError


def _parse_crash(text: str):
    """``<node>@<cycle>`` -> a kill CycleFault (the ``--crash`` type)."""
    from ..resilience import CycleFault

    node, _, cycle = text.partition("@")
    try:
        return CycleFault(cycle=int(cycle), node=int(node), action="kill")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected NODE@CYCLE (two integers), got {text!r}") from None


@cli_entry("farm")
def main(argv=None) -> int:
    parser = ArgumentParser(
        prog="python -m repro.farm",
        description="run one elastic task-farm scenario on the simulator",
    )
    parser.add_argument("--policy", default="self",
                        help="loop-scheduling policy (default: self)")
    parser.add_argument("--jobs", type=int, default=500,
                        help="number of jobs (default: 500)")
    parser.add_argument("--nodes", type=int, default=8,
                        help="cluster size (default: 8)")
    parser.add_argument("--chunk", type=int, default=8,
                        help="chunk size for self/rma dispatch (default: 8)")
    parser.add_argument("--skew", default="hot",
                        choices=("uniform", "linear", "hot"),
                        help="job-cost profile (default: hot)")
    parser.add_argument("--seed", type=int, default=0,
                        help="farm + cluster seed (default: 0)")
    parser.add_argument("--crash", action="append", default=[],
                        type=_parse_crash, metavar="NODE@CYCLE",
                        help="kill the worker on NODE at CYCLE (repeatable)")
    parser.add_argument("--perturb", type=int, default=0,
                        help="schedule-perturbation seed (0 = off)")
    parser.add_argument("--sanitize", action="store_true",
                        help="run under the communication sanitizer")
    parser.add_argument("--trace", metavar="FILE",
                        help="record a dynscope trace and write it to FILE")
    parser.add_argument("--format", choices=("chrome", "jsonl"),
                        default="chrome", help="trace format (default: chrome)")
    args = parser.parse_args(argv)
    for fault in args.crash:
        if not 0 <= fault.node < args.nodes:
            raise ConfigError(f"--crash names node {fault.node}, the cluster "
                              f"has nodes 0..{args.nodes - 1}")

    from ..config import ClusterSpec
    from ..obs.export import write_trace
    from ..resilience import FailureScript
    from ..simcluster import Cluster
    from .jobs import farm_digest, reference_results
    from .runtime import FarmSpec, run_farm

    spec = FarmSpec(
        n_jobs=args.jobs, policy=args.policy, chunk=args.chunk,
        skew=args.skew, seed=args.seed,
    )
    cluster = Cluster(ClusterSpec(
        n_nodes=args.nodes,
        seed=args.seed,
        name=f"farm-{args.policy}",
        sanitize=True if args.sanitize else None,
        observe=True if args.trace else None,
        perturb=args.perturb or None,
    ))
    failure = FailureScript(cycle_faults=args.crash) if args.crash else None
    # opened before the run: an unwritable path costs no simulation
    with (open(args.trace, "w", encoding="utf-8") if args.trace
          else contextlib.nullcontext()) as trace_out:
        result = run_farm(cluster, spec, failure_script=failure)
        if trace_out is not None:
            n_events = write_trace(cluster.obs, trace_out, args.format)

    expected = farm_digest(reference_results(args.jobs, args.seed))
    ok = result.digest == expected and result.jobs_done == args.jobs
    print(
        f"farm policy={args.policy} jobs={result.jobs_done}/{args.jobs} "
        f"wall={result.wall_time:.6f}s jobs/sec={result.jobs_per_sec:.0f} "
        f"requeued={result.n_requeued} duplicates={result.duplicates} "
        f"dead={len(result.dead_workers)} "
        f"digest={'ok' if ok else 'MISMATCH'}"
    )
    if args.trace:
        print(f"wrote {n_events} events to {args.trace}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
