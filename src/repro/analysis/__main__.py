"""dynsan command line.

Usage::

    python -m repro.analysis check src examples [--json] [--quiet]
        [--max-seconds N]
    python -m repro.analysis plan spec.json [--quiet]
    python -m repro.analysis perturb --seeds 1,2,3 [--target removal]

``check`` is the one static-analysis driver — the CI correctness
gate.  It walks the given files/trees, parses each file once and runs
the per-file AST rules (:mod:`repro.analysis.lint`) over it.  Which
files a rule looks at is its zone in the rule registry
(:mod:`repro.analysis.rules`); ``# dyn: ok(CODE)`` comments are
filtered here.  It prints one line per finding
(``path:line:col: CODE message``).

``perturb`` is the schedule-determinism check, and it runs the
program: it re-runs a traced scenario under ``DYNMPI_PERTURB`` seeds
and byte-compares the exports; by default it *expects* schedule
invariance (exit 0 when every seed reproduces the unperturbed trace),
and with ``--expect-diff`` it expects a race to show up as a trace
diff.

Every command follows one exit-code contract:

=====  =============================================================
exit   meaning
=====  =============================================================
0      clean — no findings (for ``perturb``: expectation met)
1      findings remain / violations found / expectation not met
2      usage error (unknown command or option, unreadable input,
       malformed spec) or a blown ``--max-seconds`` budget: one
       ``analysis: ...`` line on stderr (:mod:`repro.cli`)
=====  =============================================================

``plan`` statically verifies a redistribution plan from a JSON spec::

    {
      "n_rows": 12,
      "old_bounds": [[0, 5], [6, 11]],
      "new_bounds": [[0, 11], null],
      "arrays": {"A": 12},
      "accesses": [
        {"array": "A", "mode": "read", "lo_off": -1, "hi_off": 1},
        {"array": "A", "mode": "write"}
      ],
      "plan": {"1->0": {"A": [6, 7, 8, 9, 10, 11]}}
    }

``new_bounds`` entries of ``null`` mark removed participants.  The
optional ``"plan"`` object gives explicit sends (``"src->dst"`` keys);
without it the verifier derives the plan exactly as the runtime would
and self-checks it.  Exits 1 when violations are found.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Any

from ..cli import ArgumentParser, cli_entry
from ..errors import ConfigError, PlanCheckError, ReproError


def _bounds(raw: list) -> tuple:
    return tuple(None if b is None else (int(b[0]), int(b[1])) for b in raw)


def _load_plan_spec(spec: dict[str, Any]):
    from ..core.drsd import DRSD
    from .plancheck import RedistPlan, accesses_to_phases

    n_rows = int(spec["n_rows"])
    old_bounds = _bounds(spec["old_bounds"])
    new_bounds = _bounds(spec["new_bounds"])
    arrays = {str(k): int(v) for k, v in spec.get("arrays", {"A": n_rows}).items()}
    accesses = [
        DRSD(
            a["array"], a.get("mode", "readwrite"),
            int(a.get("lo_off", 0)), int(a.get("hi_off", 0)),
            int(a.get("step", 1)),
        )
        for a in spec.get("accesses", [])
    ]
    phases = accesses_to_phases(accesses)
    plan = None
    if "plan" in spec:
        plan = RedistPlan(len(new_bounds))
        for key, entry in spec["plan"].items():
            src, _, dst = key.partition("->")
            for name, rows in entry.items():
                plan.add(int(src), int(dst), name, [int(r) for r in rows])
    return old_bounds, new_bounds, phases, arrays, plan


def _cmd_plan(args: argparse.Namespace) -> int:
    from .plancheck import build_plan, verify_plan

    with open(args.spec, encoding="utf-8") as fh:
        try:  # JSONDecodeError is a ValueError
            old_bounds, new_bounds, phases, arrays, plan = \
                _load_plan_spec(json.load(fh))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed spec {args.spec}: {exc!r}") from None
    derived = plan is None
    try:
        if plan is None:
            plan = build_plan(old_bounds, new_bounds, phases, arrays)
        violations = verify_plan(
            plan, old_bounds, new_bounds, phases, arrays, raise_on_error=False
        )
    except PlanCheckError as exc:
        # fatal structural breaches (e.g. rank-count mismatch) raise even
        # with raise_on_error=False; report them like any violation list
        violations = exc.violations
    if violations:
        for v in violations:
            print(v)
        print(f"plan: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    if not args.quiet:
        src = "derived" if derived else "supplied"
        print(
            f"plan OK ({src}): {len(plan.sends)} transfer(s), "
            f"{plan.rows_sent()} row(s) moving across "
            f"{len(new_bounds)} rank(s)"
        )
    return 0


def _iter_files(paths) -> list:
    files: list[pathlib.Path] = []
    for raw in paths:
        p = pathlib.Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    return files


def analyze(paths) -> list:
    """The analysis pipeline: read and parse every file under ``paths``
    once, run the per-file rules, drop ``# dyn: ok(...)`` waivers.
    Returns the findings sorted by (path, line, code).  Raises
    ``OSError`` for an unreadable path."""
    from .lint import lint_file

    findings = [x for f in _iter_files(paths) for x in lint_file(f)]
    findings.sort(key=lambda f: (f.path, f.line, f.code))
    return findings


def _cmd_check(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    findings = analyze(args.paths)
    elapsed = time.monotonic() - t0

    if args.json:
        print(json.dumps({
            "tool": "repro.analysis check",
            "count": len(findings),
            "elapsed_seconds": round(elapsed, 3),
            "findings": [f.to_json() for f in findings],
        }, indent=2, sort_keys=True))
    elif findings:
        print("\n".join(f.render() for f in findings))
        if not args.quiet:
            print(f"check: {len(findings)} finding(s)")
    elif not args.quiet:
        print(f"check: clean [{elapsed:.2f}s]")

    if args.max_seconds is not None and elapsed > args.max_seconds:
        raise ReproError(f"check took {elapsed:.1f}s, over the "
                         f"--max-seconds {args.max_seconds:g} budget")
    return 1 if findings else 0


def _seeds(text: str) -> list:
    """The ``--seeds`` type: one or more comma-separated integers."""
    try:
        seeds = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        seeds = []
    if not seeds:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}")
    return seeds


def _cmd_perturb(args: argparse.Namespace) -> int:
    from .perturb import run_perturbed

    report = run_perturbed(args.target, args.seeds)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render())
    met = report.invariant != args.expect_diff
    return 0 if met else 1


@cli_entry("analysis")
def main(argv=None) -> int:
    parser = ArgumentParser(
        prog="python -m repro.analysis",
        description="dynsan: Dyn-MPI correctness analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser(
        "check", help="the per-file AST rules"
    )
    p_check.add_argument("paths", nargs="+", help="files or directories")
    p_check.add_argument("--quiet", action="store_true")
    p_check.add_argument("--json", action="store_true",
                         help="machine-readable findings on stdout")
    p_check.add_argument("--max-seconds", type=float, default=None,
                         help="fail (exit 2) if analysis exceeds this budget")
    p_check.set_defaults(fn=_cmd_check)

    p_plan = sub.add_parser("plan", help="verify a redistribution plan")
    p_plan.add_argument("spec", help="JSON plan spec (see module docstring)")
    p_plan.add_argument("--quiet", action="store_true")
    p_plan.set_defaults(fn=_cmd_plan)

    p_pert = sub.add_parser(
        "perturb", help="schedule-perturbation determinism cross-check"
    )
    p_pert.add_argument("--target", default="removal",
                        help="'removal' (canonical scenario) or a path to a "
                             "Python file defining run_traced() -> str")
    p_pert.add_argument("--seeds", type=_seeds, default="1,2,3",
                        help="comma-separated DYNMPI_PERTURB seeds")
    p_pert.add_argument("--expect-diff", action="store_true",
                        help="invert the expectation: exit 0 only if some "
                             "seed changes the trace (race demonstration)")
    p_pert.add_argument("--json", action="store_true",
                        help="machine-readable report on stdout")
    p_pert.set_defaults(fn=_cmd_perturb)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
