"""dynscope CLI: ``python -m repro.obs <command>``.

=========  ========================================================
command    what it does
=========  ========================================================
export     run the canonical Jacobi removal scenario with tracing
           on and print (or ``--out``) the trace — Chrome Trace
           Event JSON by default, ``--format jsonl`` for the flat
           log.  Deterministic: identical invocations produce
           byte-identical files.
summarize  per-phase cost-attribution report of a trace file
           (either format); ``--json`` for machine-readable output
diff       compare two trace files, report per-phase deltas —
           the tool that makes a BENCH regression explainable
validate   run the Chrome-trace schema validator on a file; exit 1
           on any violation
=========  ========================================================

Bad input (a bad flag value, an unwritable ``--out``, a file that is
not a trace) exits 2 with one ``obs: ...`` line on stderr
(:mod:`repro.cli`).
"""

from __future__ import annotations

import contextlib
import json
import sys

from ..cli import ArgumentParser, cli_entry


def _cmd_export(args) -> int:
    from .export import write_trace
    from .scenario import RemovalScenario, run_removal

    scenario = RemovalScenario(
        n_nodes=args.nodes, n=args.grid, iters=args.iters, seed=args.seed,
    )
    # opened before the run: an unwritable path costs no simulation
    with (open(args.out, "w", encoding="utf-8") if args.out
          else contextlib.nullcontext(sys.stdout)) as out:
        _result, cluster = run_removal(scenario, observe=True)
        n_events = write_trace(cluster.obs, out, args.format)
    if args.out:
        print(f"wrote {n_events} events to {args.out}")
    return 0


def _cmd_summarize(args) -> int:
    from .export import load_trace
    from .report import format_report, summarize

    report = summarize(*load_trace(args.trace))
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_report(report, title=f"cost attribution: {args.trace}"))
    return 0


def _cmd_diff(args) -> int:
    from .export import load_trace
    from .report import attribute, diff_reports, format_diff

    (_, events_a), (_, events_b) = load_trace(args.a), load_trace(args.b)
    diff = diff_reports(attribute(events_a), attribute(events_b))
    if args.json:
        print(json.dumps(diff, indent=2, sort_keys=True))
    else:
        print(format_diff(diff, name_a=args.a, name_b=args.b))
    return 0


def _cmd_validate(args) -> int:
    from .schema import validate_chrome_file

    errors = validate_chrome_file(args.trace)
    if errors:
        for err in errors:
            print(err, file=sys.stderr)
        print(f"{args.trace}: {len(errors)} schema violation(s)",
              file=sys.stderr)
        return 1
    print(f"{args.trace}: valid Chrome trace")
    return 0


@cli_entry("obs")
def main(argv=None) -> int:
    parser = ArgumentParser(
        prog="python -m repro.obs",
        description="dynscope: trace export, cost attribution, trace diff",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("export", help="run the canonical removal scenario "
                                      "and export its trace")
    p.add_argument("--format", choices=("chrome", "jsonl"), default="chrome")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--grid", type=int, default=160)
    p.add_argument("--iters", type=int, default=36)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("summarize", help="per-phase cost attribution of a "
                                         "trace file")
    p.add_argument("trace")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_summarize)

    p = sub.add_parser("diff", help="per-phase deltas between two traces")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("validate", help="Chrome-trace schema validation")
    p.add_argument("trace")
    p.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
