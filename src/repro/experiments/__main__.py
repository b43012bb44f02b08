"""Command-line figure runner.

Usage::

    python -m repro.experiments fig4 [--scale 0.5] [--apps jacobi,cg]
    python -m repro.experiments fig5 | fig6 | fig7 | fig3 | ablations
    python -m repro.experiments all --scale 0.25

Prints the same tables the benches write to ``benchmarks/results/``.
Exit 0, or 2 on bad input: one ``experiments: ...`` line on stderr
(:mod:`repro.cli`).
"""

from __future__ import annotations

import argparse
import sys

from . import (
    cg_4node_narrative,
    format_balance_ablation,
    format_figure4,
    format_figure5,
    format_figure6,
    format_figure7,
    format_memalloc,
    format_monitor_ablation,
    run_balance_ablation,
    run_figure4,
    run_figure5,
    run_figure6,
    run_figure7,
    run_memalloc,
    run_monitor_ablation,
)
from ..cli import ArgumentParser, cli_entry
from .figure4 import APP_NAMES
from .harness import bench_scale, parse_scale


def _scale(text: str) -> float:
    """The ``--scale`` type: the variable's own validation, whose
    ConfigError argparse passes through."""
    return parse_scale(text, "--scale")


def _apps(text: str) -> tuple:
    """The ``--apps`` type: a comma-separated subset of the apps."""
    apps = tuple(text.split(","))
    for app in apps:
        if app not in APP_NAMES:
            raise argparse.ArgumentTypeError(
                f"unknown app {app!r} (choose from {', '.join(APP_NAMES)})")
    return apps


def _fig4(args) -> None:
    print(format_figure4(run_figure4(apps=args.apps, scale=args.scale,
                                     seed=args.seed)))
    if "cg" in args.apps and args.narrative:
        n = cg_4node_narrative(scale=args.scale, seed=args.seed)
        print(f"\n4-node CG narrative: dedicated={n.t_dedicated:.1f}s "
              f"no-adapt={n.t_noadapt:.1f}s dyn-mpi={n.t_dynmpi:.1f}s "
              f"shares={[round(s, 3) for s in n.shares]} "
              f"redist={n.redist_seconds:.2f}s")


def _fig5(args) -> None:
    print(format_figure5(run_figure5(scale=args.scale, seed=args.seed)))


def _fig6(args) -> None:
    print(format_figure6(run_figure6(scale=args.scale, iters=args.iters,
                                 seed=args.seed)))


def _fig7(args) -> None:
    print(format_figure7(run_figure7(scale=args.scale, seed=args.seed)))


def _fig3(args) -> None:
    print(format_memalloc(run_memalloc(scale=args.scale)))


def _ablations(args) -> None:
    print(format_balance_ablation(run_balance_ablation()))
    print()
    print(format_monitor_ablation(run_monitor_ablation()))


FIGURES = {
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "ablations": _ablations,
}


@cli_entry("experiments")
def main(argv=None) -> int:
    parser = ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the Dyn-MPI paper's figures.",
    )
    parser.add_argument("figure", choices=list(FIGURES) + ["all"])
    parser.add_argument("--scale", type=_scale, default=None,
                        help="linear problem scale in (0,1]; default: "
                             "DYNMPI_BENCH_SCALE or 1.0")
    parser.add_argument("--seed", type=int, default=0,
                        help="cluster RNG seed for the figure runs "
                             "(fig3/ablations are seed-free; default 0)")
    parser.add_argument("--apps", type=_apps, default=APP_NAMES,
                        help="fig4 only: comma-separated app subset")
    parser.add_argument("--iters", type=int, default=120,
                        help="fig6 only: SOR iterations per run")
    parser.add_argument("--narrative", action="store_true",
                        help="fig4 only: also print the 4-node CG walkthrough")
    args = parser.parse_args(argv)
    if args.scale is None:
        args.scale = bench_scale()
    if args.figure == "all":
        for name, fn in FIGURES.items():
            print(f"\n=== {name} ===")
            fn(args)
    else:
        FIGURES[args.figure](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
