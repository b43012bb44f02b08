"""dynrace — static message-race and determinism analysis with a
schedule-perturbation cross-check.

The repo's headline guarantee — two identical seeded runs export
byte-identical traces — holds only in the *absence* of message races
and hidden nondeterminism; the runtime sanitizer merely observes
ANY_SOURCE races when they happen to occur.
dynrace proves their absence statically and backs the verdict with a
dynamic experiment:

* **DYN701/DYN702** come from a happens-before model (:mod:`.hb`) over
  dynflow's communication trace summaries: collectives induce ordering
  edges (epochs), rank-pinned branches bound who executes a site, and
  a wildcard receive reachable by ≥2 concurrent sources — or a branch
  whose condition derives from a wildcard-receive result and whose
  arms emit different traffic — is flagged with the racing sites side
  by side.
* **DYN703/DYN704/DYN705** are AST determinism rules
  (:func:`repro.analysis.lint.race_lint_tree`): unordered-set
  iteration feeding message/event order, RNG use outside the seeded
  ``StreamRegistry`` home, and set-order-dependent float accumulation.
* **The perturbation harness** (:mod:`.perturb`,
  ``DYNMPI_PERTURB=<seed>``) re-runs a traced scenario with the
  kernel's MPI-undefined tie-breaks flipped and byte-compares the
  exports: clean programs must be invariant under every seed, and
  every DYN701 true positive is demonstrable as a real trace diff.

Usage::

    python -m repro.analysis check src/repro examples
    python -m repro.analysis perturb --seeds 1,2,3

:func:`analyze` is the ``race`` pass of ``check``: it takes the
registry the driver loaded and returns raw findings; suppression
comments and baselines are the driver's job.
"""

from __future__ import annotations

from ..flow.callgraph import Registry
from ..lint import race_lint_tree
from .engine import RaceEngine
from .hb import RaceEvent, collect_events, may_match, race_skeleton
from .perturb import PerturbReport, capture_trace, run_perturbed

__all__ = [
    "PerturbReport",
    "RaceEngine",
    "RaceEvent",
    "analyze",
    "capture_trace",
    "collect_events",
    "may_match",
    "race_skeleton",
    "run_perturbed",
]


def analyze(registry: Registry) -> list:
    """The happens-before engine (DYN701/702) over the indexed
    modules, plus the determinism AST rules (DYN703–705) over every
    parsed file their zone admits."""
    findings = RaceEngine(registry).run()
    for mod in registry.files:
        findings.extend(race_lint_tree(mod.tree, mod.path))
    return findings
