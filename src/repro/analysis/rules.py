"""The rule registry: one row per DYN code, and the path zones the
rows refer to.

Every static finding the suite can report is declared here exactly
once — its code, the pass (*family*) that emits it, the zone it
applies in, and its one-line summary (``docs/ANALYSIS.md`` carries the
long-form rationale; a test keeps the two tables in step).  The
driver (``python -m repro.analysis check``) and the passes consult
this table; nothing else in the package knows which codes exist.

A rule applies only inside its *zone* — a set of files picked out by
path components — and several zones exempt a sanctioned *home* (the
one module allowed to do the thing the rule bans).  A :class:`Zone`
is declarative:

* ``require_parts`` — the path must contain at least one of these
  components (empty = no requirement);
* ``forbid_parts`` — the path must contain none of these …
* ``unless_parts`` — … unless it also contains one of these;
* ``exempt_files`` — file names excluded from the zone;
* ``homes`` — the sanctioned homes, ``(dir, prefix)`` pairs: files
  named ``{prefix}*`` under a ``{dir}`` component are *outside* the
  zone (they are the modules the rule protects).

One suppression syntax waives a finding of any rule, and it names the
code it silences: ``# dyn: ok(DYN801) reason`` (see
:func:`repro.analysis.findings.is_suppressed`).
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass

__all__ = ["Zone", "ZONES", "Rule", "RULES"]


@dataclass(frozen=True)
class Zone:
    name: str
    require_parts: tuple = ()
    forbid_parts: tuple = ()
    unless_parts: tuple = ()
    exempt_files: tuple = ()
    homes: tuple = ()

    def is_home(self, path: pathlib.Path) -> bool:
        """Whether ``path`` is one of the zone's sanctioned home modules."""
        return any(d in path.parts and path.name.startswith(prefix)
                   for d, prefix in self.homes)

    def contains(self, path: pathlib.Path) -> bool:
        parts = path.parts
        if self.require_parts and not any(
            p in parts for p in self.require_parts
        ):
            return False
        if any(p in parts for p in self.forbid_parts) and not any(
            p in parts for p in self.unless_parts
        ):
            return False
        if path.name in self.exempt_files:
            return False
        return not self.is_home(path)


_ZONES = (
    # rules about the code's own shape apply to every analyzed file
    Zone("everywhere"),
    # the whole-program families (DYN5xx/7xx/10xx) analyze programs —
    # library code, examples, loose scripts — not the harness around
    # them: tests and benchmarks draw RNG, poke internals and build
    # throwaway lists freely.  The seeded-bad fixtures are programs
    # that happen to live under tests/.
    Zone("program", forbid_parts=("tests", "benchmarks"),
         unless_parts=("fixtures",)),
    # DYN101: wallclock/randomness is banned where bit-exactness lives
    Zone("deterministic", require_parts=("simcluster", "core")),
    # DYN301: library code must route faults through the FailureBoard;
    # the resilience package is the sanctioned home
    Zone("fault", require_parts=("repro",), forbid_parts=("resilience",)),
    # DYN401: per-row membership loops on the data-plane hot paths
    # (the set-based oracle, tests/oracles/row_sets.py, is outside it)
    Zone("row_membership", require_parts=("core", "resilience")),
    # DYN601: ad-hoc instrumentation outside the sanctioned homes
    # (sysmon/obs); CLI entry points and report formatters exist to
    # print, and the analysis driver's --max-seconds budget is
    # wall-clock by definition
    Zone("instrumentation", require_parts=("repro",),
         forbid_parts=("sysmon", "obs"),
         exempt_files=("__main__.py", "report.py")),
    # DYN801: process-level parallelism belongs to the campaign layer
    Zone("process", require_parts=("repro",), forbid_parts=("campaign",)),
    # DYN901: the event queue's invariants belong to the kernel and
    # to the reference loop the equivalence suite checks it against
    Zone("kernel", require_parts=("repro",),
         homes=(("simcluster", "kernel.py"),
                ("oracles", "kernel_reference.py"))),
    # DYN704: the one sanctioned RNG construction site.  Used through
    # ``is_home`` — the *home* is what the rule needs to recognize.
    Zone("rng", require_parts=("repro",),
         homes=(("simcluster", "rng.py"),)),
    # DYN1101: the farm wire protocol (reserved tag band 210-219) and
    # one-sided Window construction belong to repro.farm / repro.mpi.rma
    Zone("farm", require_parts=("repro",), forbid_parts=("farm",),
         homes=(("mpi", "rma"),)),
)

ZONES: dict[str, Zone] = {z.name: z for z in _ZONES}


@dataclass(frozen=True)
class Rule:
    code: str
    family: str    # the pass that emits it: lint | flow | race | perf
    zone: str      # key into ZONES
    summary: str

    def applies_to(self, path: pathlib.Path) -> bool:
        return ZONES[self.zone].contains(path)


_RULES = (
    # -- lint: per-file AST rules (repro.analysis.lint) ------------------
    Rule("DYN000", "lint", "everywhere",
         "syntax error — the file could not be parsed"),
    Rule("DYN001", "lint", "everywhere",
         "generator endpoint/collective call dropped as a bare statement"),
    Rule("DYN002", "lint", "everywhere",
         "`yield gen_call(...)` where `yield from` is required"),
    Rule("DYN101", "lint", "deterministic",
         "wallclock/randomness in a deterministic zone (simcluster/core)"),
    Rule("DYN201", "lint", "everywhere",
         "mutable default on a dataclass field"),
    Rule("DYN301", "lint", "fault",
         "bare Simulator.kill/inject outside repro.resilience"),
    Rule("DYN401", "lint", "row_membership",
         "per-row row-membership construction on a data-plane hot path"),
    Rule("DYN601", "lint", "instrumentation",
         "ad-hoc instrumentation (wallclock read or print) in library code"),
    Rule("DYN801", "lint", "process",
         "process-level parallelism outside repro.campaign"),
    Rule("DYN901", "lint", "kernel",
         "event-queue manipulation outside simcluster/kernel.py"),
    Rule("DYN1101", "lint", "farm",
         "farm wire-protocol access outside repro.farm / repro.mpi.rma"),
    # -- flow: whole-program communication flow (repro.analysis.flow) ----
    Rule("DYN501", "flow", "program",
         "collective sequence diverges on a rank-dependent branch"),
    Rule("DYN502", "flow", "program",
         "rank-dependent loop bound around a collective"),
    Rule("DYN503", "flow", "program",
         "send-in reachable on a removed (non-participating) path"),
    Rule("DYN504", "flow", "program",
         "array access outside the owned+halo region"),
    Rule("DYN505", "flow", "program",
         "collective signature mismatch across a rank-dependent branch"),
    # -- race: happens-before + determinism (repro.analysis.race) --------
    Rule("DYN701", "race", "program",
         "wildcard receive matchable by concurrent sends from several "
         "sources"),
    Rule("DYN702", "race", "program",
         "schedule-dependent branch changes subsequent communication"),
    Rule("DYN703", "race", "program",
         "unordered set iteration feeds message/event ordering"),
    Rule("DYN704", "race", "program",
         "RNG outside the seeded StreamRegistry home"),
    Rule("DYN705", "race", "program",
         "float accumulation order depends on set iteration"),
    # -- perf: hot-path cost rules (repro.analysis.perf); the hot zone
    # itself is function-level (call-graph reachability), not a path --
    Rule("DYN1001", "perf", "program", "allocation inside a hot loop"),
    Rule("DYN1002", "perf", "program", "linear scan on the per-event path"),
    Rule("DYN1003", "perf", "program",
         "nested rank iteration (quadratic in world size)"),
    Rule("DYN1004", "perf", "program",
         "loop-invariant work repeated inside a hot loop"),
    Rule("DYN1005", "perf", "program",
         "exception control flow or eager formatting per event"),
    Rule("DYN1006", "perf", "program",
         "expensive call result discarded in the hot zone"),
)

RULES: dict[str, Rule] = {r.code: r for r in _RULES}
