"""dyncamp CLI: ``python -m repro.campaign <command>``.

Commands
--------

``run``     expand a campaign spec file into a directory and sweep it
``resume``  continue a (possibly killed) campaign from its directory
``status``  show sweep progress and the quarantine list
``report``  aggregate finished combos; writes ``BENCH_<name>.json``
``fuzz``    run seeded fuzz scenarios through the invariant checkers;
            ``--replay CORPUS`` re-runs a persisted failure corpus
            (JSONL, one failure per line) instead of generating new
            scenarios

Exit codes: 0 = success / all invariants clean; 1 = findings
(quarantined combos, fuzz failures); 2 = usage or campaign-spec error,
reported as one ``campaign: ...`` line on stderr (:mod:`repro.cli`).
"""

from __future__ import annotations

import pathlib
from typing import Optional

from ..cli import ArgumentParser, cli_entry
from .engine import Engine, default_workers
from .fuzz import run_fuzz, run_replay
from .report import render_status, render_summary
from .scenarios import build_scenario
from .space import load_space
from .sweeper import DEFAULT_MAX_TRIES, ParamSweeper


def _engine(sweeper: ParamSweeper, args) -> Engine:
    return Engine(
        sweeper,
        workers=args.workers,
        progress=None if args.quiet else lambda msg: print(msg, flush=True),
    )


def _sweep(sweeper: ParamSweeper, args) -> int:
    """Shared tail of ``run`` and ``resume``."""
    with sweeper:
        engine = _engine(sweeper, args)
        stats = engine.run(max_combos=args.max_combos)
        if not stats.complete:
            print(f"stopped early: {stats.render()} "
                  f"(resume with: python -m repro.campaign resume "
                  f"--dir {sweeper.dir})")
            return 0
        agg = engine.aggregate(
            bench_name=args.bench,
            write_to=args.bench_dir or sweeper.dir,
        )
        print(render_summary(agg))
        if sweeper.skipped:
            print(render_status(sweeper))
            return 1
        return 0


def cmd_run(args) -> int:
    space = load_space(args.space)
    # a bad value in the part every combo shares is a spec error, not
    # one poisoned combo to quarantine
    build_scenario(space.fixed)
    sweeper = ParamSweeper.create(args.dir, space, max_tries=args.max_tries)
    return _sweep(sweeper, args)


def cmd_resume(args) -> int:
    return _sweep(ParamSweeper.open_dir(args.dir), args)


def cmd_status(args) -> int:
    with ParamSweeper.open_dir(args.dir) as sweeper:
        print(render_status(sweeper))
        return 0


def cmd_report(args) -> int:
    with ParamSweeper.open_dir(args.dir) as sweeper:
        engine = Engine(sweeper, workers=1)
        agg = engine.aggregate(
            bench_name=args.bench,
            write_to=args.bench_dir or sweeper.dir,
        )
        print(render_summary(agg))
        if sweeper.skipped:
            print(render_status(sweeper))
            return 1
        return 0


def cmd_fuzz(args) -> int:
    if args.replay is not None:
        report = run_replay(
            args.replay, workers=args.workers or default_workers()
        )
        drifted = sum(1 for r in report.rows if r.get("drifted"))
        print(f"replay: {args.replay} ({report.n_scenarios} row(s)"
              + (f", {drifted} drifted" if drifted else "") + ")")
        print(report.render())
        return 0 if report.clean else 1
    report = run_fuzz(
        args.seed,
        args.iterations,
        workers=args.workers or default_workers(),
        out_dir=args.out,
        indices=args.index or None,
    )
    print(report.render())
    return 0 if report.clean else 1


def _add_exec_args(p: ArgumentParser) -> None:
    p.add_argument("--workers", type=int, default=None,
                   help="pool size (default: one per host CPU, capped)")
    p.add_argument("--max-combos", type=int, default=None,
                   help="stop after this many combo attempts (for drills)")
    p.add_argument("--bench", default="campaign",
                   help="BENCH_<name>.json name (default: campaign)")
    p.add_argument("--bench-dir", type=pathlib.Path, default=None,
                   help="where to write the aggregate "
                        "(default: the campaign directory)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-pass progress lines")


def build_parser() -> ArgumentParser:
    parser = ArgumentParser(
        prog="python -m repro.campaign",
        description="dyncamp: parallel, resumable scenario campaigns",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="sweep a campaign spec file")
    p.add_argument("space", type=pathlib.Path,
                   help="campaign spec JSON ({name, params, fixed})")
    p.add_argument("--dir", type=pathlib.Path, required=True,
                   help="campaign state directory (journal + results)")
    p.add_argument("--max-tries", type=int, default=DEFAULT_MAX_TRIES,
                   help="attempts before a failing combo is quarantined")
    _add_exec_args(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("resume", help="continue a campaign directory")
    p.add_argument("--dir", type=pathlib.Path, required=True)
    _add_exec_args(p)
    p.set_defaults(fn=cmd_resume)

    p = sub.add_parser("status", help="show sweep progress")
    p.add_argument("--dir", type=pathlib.Path, required=True)
    p.set_defaults(fn=cmd_status)

    p = sub.add_parser("report", help="aggregate finished combos")
    p.add_argument("--dir", type=pathlib.Path, required=True)
    p.add_argument("--bench", default="campaign")
    p.add_argument("--bench-dir", type=pathlib.Path, default=None)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("fuzz", help="run seeded fuzz scenarios")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (default 0)")
    p.add_argument("--iterations", type=int, default=10,
                   help="number of scenarios (default 10)")
    p.add_argument("--index", type=int, action="append", default=None,
                   help="run exactly this iteration index (repeatable; "
                        "overrides --iterations) — the repro-line form")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", type=pathlib.Path, default=None,
                   help="directory for failures.jsonl repro records")
    p.add_argument("--replay", type=pathlib.Path, default=None,
                   metavar="CORPUS",
                   help="replay a failures.jsonl corpus instead of "
                        "fuzzing; exit 0 only if every recorded "
                        "scenario is now clean")
    p.set_defaults(fn=cmd_fuzz)
    return parser


@cli_entry("campaign")
def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
