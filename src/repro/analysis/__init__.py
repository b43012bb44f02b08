"""dynsan — the Dyn-MPI correctness-analysis subsystem.

Four layers (see ``docs/ANALYSIS.md``):

* :mod:`repro.analysis.plancheck` — static verification of a
  redistribution plan *before* it executes (Section 4.4 invariants:
  matched sends/receives, row-multiset conservation, ghost coverage,
  send-out-only for removed nodes).
* :mod:`repro.analysis.sanitizer` — opt-in runtime sanitizer hooked
  into the MPI layer and the simulation kernel: unmatched send/recv
  accounting, ANY_SOURCE race warnings, collective-mismatch checks,
  and wait-for-graph deadlock detection that fails fast instead of
  hanging the simulation.
* ``python -m repro.analysis check`` — one static-analysis driver
  over one rule registry (:mod:`repro.analysis.rules`), one finding
  type and one ``# dyn: ok(CODE)`` suppression
  (:mod:`repro.analysis.findings`).  It parses each file once and runs
  :mod:`repro.analysis.lint` over it (per-file AST rules for the
  failure modes generic linters cannot see).
* :mod:`repro.analysis.perturb` — the schedule-perturbation harness
  (``DYNMPI_PERTURB``): a seeded run must export the same bytes under
  every flip of the tie-breaks MPI leaves undefined.  Determinism,
  hot-path cost, collective lockstep and ownership are watched by
  running the program (this harness, the e2e ledger's ``sim_digest``
  and per-layer rows, the sanitizer, ``AllocationError``), not by a
  static pass.

Command line: ``python -m repro.analysis check src examples``,
``python -m repro.analysis plan spec.json`` and
``python -m repro.analysis perturb --seeds 1,2,3``.

Only the sanitizer is imported eagerly: :mod:`repro.simcluster` wires
it into every cluster, and importing :mod:`plancheck` here would close
an import cycle through :mod:`repro.core`.
"""

from __future__ import annotations

from .sanitizer import CommSanitizer, SanitizerReport, sanitizer_enabled

_LAZY = ("plancheck", "lint", "perturb")

__all__ = [
    "CommSanitizer",
    "SanitizerReport",
    "sanitizer_enabled",
    *_LAZY,
]


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
