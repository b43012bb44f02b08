"""The rule registry: one row per DYN code, and the path zones the
rows refer to.

Every static finding the suite can report is declared here exactly
once — its code, the zone it applies in, its one-line summary and what
it has *earned* its place with (``docs/ANALYSIS.md`` carries the
long-form rationale; a test keeps the two tables in step).  The driver
(``python -m repro.analysis check``) and the per-file pass
(:mod:`repro.analysis.lint`) consult this table; nothing else in the
package knows which codes exist.

``earned_by`` is the audit ledger: ``defect: …`` names the real bug
the rule caught, ``fence: …`` names the home module or invariant it
guards and why no test fails when it is violated.  A rule with
neither — one whose invariant something that *runs* already enforces
(the perturbation harness, the e2e ledger, the runtime sanitizer) — is
retired, as the static race, hot-path cost and whole-program flow
families and the DYN201 / DYN301 fences were (``docs/ANALYSIS.md``
section 4 has the trials).

A rule applies only inside its *zone* — a set of files picked out by
path components — and several zones exempt a sanctioned *home* (the
one module allowed to do the thing the rule bans).  A :class:`Zone`
is declarative:

* ``require_parts`` — the path must contain at least one of these
  components (empty = no requirement);
* ``forbid_parts`` — the path must contain none of these;
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
        if any(p in parts for p in self.forbid_parts):
            return False
        if path.name in self.exempt_files:
            return False
        return not self.is_home(path)


_ZONES = (
    # rules about the code's own shape apply to every analyzed file
    Zone("everywhere"),
    # DYN101: wallclock/randomness is banned where bit-exactness lives
    Zone("deterministic", require_parts=("simcluster", "core")),
    # DYN401: per-row membership loops on the data-plane hot paths
    # (the set-based oracle, tests/oracles/row_sets.py, is outside it)
    Zone("row_membership", require_parts=("core", "resilience")),
    # DYN601: ad-hoc instrumentation outside the sanctioned homes
    # (sysmon/obs); CLI entry points, their shared contract (cli.py)
    # and report formatters exist to print, and the analysis driver's
    # --max-seconds budget is wall-clock by definition
    Zone("instrumentation", require_parts=("repro",),
         forbid_parts=("sysmon", "obs"),
         exempt_files=("__main__.py", "cli.py", "report.py")),
    # DYN801: process-level parallelism belongs to the campaign layer
    Zone("process", require_parts=("repro",), forbid_parts=("campaign",)),
    # DYN901: the event queue's invariants belong to the kernel and
    # to the reference loop the equivalence suite checks it against
    Zone("kernel", require_parts=("repro",),
         homes=(("simcluster", "kernel.py"),
                ("oracles", "kernel_reference.py"))),
    # DYN1101: the farm wire protocol (reserved tag band 210-219) and
    # one-sided Window construction belong to repro.farm / repro.mpi.rma
    Zone("farm", require_parts=("repro",), forbid_parts=("farm",),
         homes=(("mpi", "rma"),)),
)

ZONES: dict[str, Zone] = {z.name: z for z in _ZONES}


@dataclass(frozen=True)
class Rule:
    code: str
    zone: str      # key into ZONES
    summary: str
    earned_by: str  # "defect: ..." or "fence: ..." (module docstring)

    def applies_to(self, path: pathlib.Path) -> bool:
        return ZONES[self.zone].contains(path)


_RULES = (
    Rule("DYN000", "everywhere",
         "syntax error — the file could not be parsed",
         "fence: the gate itself — a file that does not parse would be "
         "skipped and the tree would read clean"),
    Rule("DYN001", "everywhere",
         "generator endpoint/collective call dropped as a bare statement",
         "fence: the generator endpoint API — a dropped `ep.send(...)` "
         "raises nothing and sends nothing; a test notices only if a "
         "peer blocks on that message"),
    Rule("DYN002", "everywhere",
         "`yield gen_call(...)` where `yield from` is required",
         "fence: the generator endpoint API — the kernel rejects the "
         "bogus syscall only on a path that executes it; the rule reads "
         "the paths no test drives"),
    Rule("DYN101", "deterministic",
         "wallclock/randomness in a deterministic zone (simcluster/core)",
         "fence: bit-exactness of simcluster/ and core/ — a wallclock "
         "read passes every single-run test and only moves digests "
         "between runs, on whichever workload reaches it"),
    Rule("DYN401", "row_membership",
         "per-row row-membership construction on a data-plane hot path",
         "fence: the IntervalSet data plane (core/, resilience/) — a "
         "per-row set gives the same answer in O(rows), so every "
         "equality test passes; the tier-1 scaling guards count two "
         "call sites, the rule covers the rest (on trial: a filtered "
         "row comprehension in the checkpoint snapshot passes tier-1, "
         "plain and sanitized)"),
    Rule("DYN601", "instrumentation",
         "ad-hoc instrumentation (wallclock read or print) in library code",
         "fence: repro.obs / repro.sysmon as the only instrumentation "
         "homes — a stray print or timer changes no result (on trial: "
         "a print in DynMPI._apply and a perf_counter read in Jacobi's "
         "exec_rows each pass tier-1, plain and sanitized)"),
    Rule("DYN801", "process",
         "process-level parallelism outside repro.campaign",
         "fence: the single-process simulator — a pool in library code "
         "computes the same values until it meets the campaign's own "
         "spawn workers (on trial: run_perturbed on a multiprocessing "
         "pool passes tier-1, plain and sanitized)"),
    Rule("DYN901", "kernel",
         "event-queue manipulation outside simcluster/kernel.py",
         "fence: the kernel heap's (time, seq) order and tombstone "
         "count — an out-of-band push corrupts the count silently and "
         "compaction misfires only past its 64-entry floor (on trial: "
         "Network._inject pushing its delivery onto sim._heap by hand "
         "passes tier-1, plain and sanitized)"),
    Rule("DYN1101", "farm",
         "farm wire-protocol access outside repro.farm / repro.mpi.rma",
         "fence: the farm tag band [210, 220) and RMA window registry — "
         "a colliding raw tag misroutes only when a farm shares the "
         "communicator, which no app test sets up (on trial: the "
         "particle flow exchange on raw tags 211/212 passes tier-1, "
         "plain and sanitized)"),
)

RULES: dict[str, Rule] = {r.code: r for r in _RULES}
