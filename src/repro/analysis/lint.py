"""The per-file AST rules (the ``lint`` pass).

Generic linters cannot know that this codebase's endpoint operations
are *generators*: ``ep.send(...)`` as a bare statement builds a
generator object, drops it, and silently sends nothing.  Nor can they
know that :mod:`repro.simcluster` and :mod:`repro.core` must stay
bit-for-bit deterministic (wallclock or unseeded randomness there
breaks reproducibility and the redistribution lockstep).  These checks
are encoded here as one visitor over the parsed tree, :class:`_Linter`:
DYN001/002 (undriven generator calls), DYN101, DYN401, DYN601, DYN801,
DYN901, DYN1101.

What each code means, and the zone it applies in, is one row of the
rule registry (:mod:`repro.analysis.rules`; long-form rationale in
``docs/ANALYSIS.md``).  The visitor emits unconditionally and
:meth:`_Linter._emit` drops what the file's path puts out of zone,
so the zone of every rule is derived from the path and nothing else.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Optional

from .findings import Finding, is_suppressed
from .rules import RULES

__all__ = ["lint_source", "lint_file"]

#: endpoint/runtime methods that return generators and must be driven
GENERATOR_METHODS = frozenset({
    "send", "isend", "recv", "sendrecv", "wait",
    "send_rel", "recv_rel", "sendrecv_rel",
    "allreduce_active", "allgather_active", "bcast_active", "global_reduce",
    "begin_cycle", "end_cycle", "compute",
})

#: module-level generator functions (collectives, redistribution, halos)
GENERATOR_FUNCS = frozenset({
    "barrier", "bcast", "reduce", "allreduce", "gather", "scatter",
    "allgather", "allgather_dissemination", "neighbor_alltoallv",
    "redistribute", "halo_start",
})

#: top-level modules whose import constitutes process-level parallelism
#: (``concurrent`` covers ``concurrent.futures``) — DYN801; the
#: campaign engine is the zone's sanctioned home
_PROCESS_MODULES = frozenset({"multiprocessing", "concurrent", "subprocess"})

#: the reserved farm wire-protocol tag band (repro.farm.protocol)
_FARM_TAG_LO, _FARM_TAG_HI = 210, 220

#: endpoint operations whose tag argument DYN1101 inspects
_FARM_TAG_SINKS = frozenset({
    "send", "recv", "isend", "irecv", "sendrecv", "iprobe", "probe",
    "send_rel", "recv_rel", "sendrecv_rel",
})

#: the event-queue attribute DYN901 guards against out-of-band access
_KERNEL_HEAP_ATTR = "_heap"

#: wallclock reads DYN601 flags in library code (DYN101's time-family
#: subset; entropy stays DYN101-only — it is a determinism bug, not an
#: instrumentation one)
_OBS_TIME_CALLS = frozenset({
    "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns", "time.process_time",
})

#: wallclock / entropy calls banned inside deterministic zones
_BANNED_CALLS = frozenset({
    "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns", "time.process_time",
    "datetime.datetime.now", "datetime.datetime.utcnow", "datetime.date.today",
    "os.urandom", "uuid.uuid4",
})

#: numpy.random attributes that are fine with an explicit seed argument
_NP_RANDOM_ALLOWED = frozenset({"default_rng", "SeedSequence", "Generator",
                                "PCG64", "Philox", "BitGenerator"})


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str):
        self.path = path
        p = pathlib.Path(path)
        #: the codes whose zone admits this file
        self.active = frozenset(
            r.code for r in RULES.values() if r.applies_to(p)
        )
        self.findings: list[Finding] = []
        #: local alias -> real module name (import numpy as np)
        self.aliases: dict[str, str] = {}
        #: names imported *from* banned modules (from random import choice)
        self.from_random: set[str] = set()
        #: local name -> dotted origin for ``from time import ...``
        #: (so DYN601 sees through ``from time import time as wallclock``)
        self.from_time: dict[str, str] = {}

    def _emit(self, node: ast.AST, code: str, message: str) -> None:
        if code in self.active:
            self.findings.append(Finding(
                self.path, node.lineno, node.col_offset, code, message
            ))

    def _track_aliases(self, node: ast.Import) -> None:
        for alias in node.names:
            top = alias.name.split(".")[0]
            self.aliases[alias.asname or top] = top

    def _resolve(self, dotted: Optional[str]) -> Optional[str]:
        """Rewrite the leading alias of a dotted path to its module."""
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        real = self.aliases.get(head, head)
        return f"{real}.{rest}" if rest else real

    # -- helpers --------------------------------------------------------
    def _check_process_import(self, node: ast.AST, module: str) -> None:
        if module.split(".")[0] in _PROCESS_MODULES:
            self._emit(node, "DYN801",
                       f"`{module}` brings process-level parallelism into "
                       f"library code; the simulator must stay "
                       f"single-process — fan out at the campaign layer "
                       f"(repro.campaign) instead")

    def _check_kernel_import(self, node: ast.AST, module: str) -> None:
        if module.split(".")[0] == "heapq":
            self._emit(node, "DYN901",
                       f"`{module}` manipulates an event queue outside the "
                       f"kernel (simcluster/kernel.py), which owns the "
                       f"(time, seq) order and tombstone accounting; "
                       f"schedule through the Simulator API instead")

    def _is_generator_call(self, node: ast.AST) -> Optional[str]:
        """Return a short description if ``node`` calls a known
        generator endpoint/collective, else None."""
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in GENERATOR_METHODS:
            base = _dotted_name(func.value)
            return f"{base or '<expr>'}.{func.attr}(...)"
        if isinstance(func, ast.Name) and func.id in GENERATOR_FUNCS:
            return f"{func.id}(...)"
        return None

    # -- imports (alias tracking + DYN101 on the import itself) ---------
    def visit_Import(self, node: ast.Import) -> None:
        self._track_aliases(node)
        for alias in node.names:
            self._check_process_import(node, alias.name)
            self._check_kernel_import(node, alias.name)
            if alias.name.split(".")[0] == "random":
                self._emit(node, "DYN101",
                           "the `random` module is nondeterministic state "
                           "shared across the process; use the cluster's "
                           "seeded StreamRegistry instead")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module:
            self._check_process_import(node, node.module)
            self._check_kernel_import(node, node.module)
        if node.module and node.module.split(".")[0] == "random":
            self._emit(node, "DYN101",
                       "importing from `random` breaks determinism; use the "
                       "cluster's seeded StreamRegistry instead")
            self.from_random.update(a.asname or a.name for a in node.names)
        if node.module == "time":
            for a in node.names:
                self.from_time[a.asname or a.name] = f"time.{a.name}"
        self.generic_visit(node)

    # -- DYN001: bare generator statement -------------------------------
    def visit_Expr(self, node: ast.Expr) -> None:
        desc = self._is_generator_call(node.value)
        if desc is not None:
            self._emit(node, "DYN001",
                       f"{desc} returns a generator that was dropped — this "
                       f"sends/receives nothing; drive it with `yield from`")
        self.generic_visit(node)

    # -- DYN002: yield instead of yield from ----------------------------
    def visit_Yield(self, node: ast.Yield) -> None:
        desc = self._is_generator_call(node.value) if node.value else None
        if desc is not None:
            self._emit(node, "DYN002",
                       f"`yield {desc}` hands the kernel a generator object "
                       f"instead of driving it; use `yield from`")
        self.generic_visit(node)

    # -- DYN901: out-of-band event-queue access -------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == _KERNEL_HEAP_ATTR:
            base = _dotted_name(node.value)
            self._emit(node, "DYN901",
                       f"`{base or '<expr>'}.{_KERNEL_HEAP_ATTR}` reaches "
                       f"into the kernel's event queue from outside "
                       f"simcluster/kernel.py; out-of-band pushes/pops "
                       f"corrupt the tombstone accounting — use schedule/"
                       f"call_soon/Timer.cancel")
        self.generic_visit(node)

    # -- DYN401: per-row row-membership construction --------------------
    @staticmethod
    def _is_row_range(node: ast.AST) -> bool:
        """A ``range(lo, hi)``/``range(lo, hi, step)`` call — the shape
        of a *row* loop.  Single-argument ``range(n)`` is rank-space
        iteration (group sizes, not row counts) and stays allowed."""
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "range"
            and len(node.args) >= 2
        )

    def _check_row_comprehension(self, node) -> None:
        """list/set comprehensions that *filter* a row range build and
        test one Python object per row."""
        for gen in node.generators:
            if gen.ifs and self._is_row_range(gen.iter):
                kind = "set" if isinstance(node, ast.SetComp) else "list"
                self._emit(node, "DYN401",
                           f"per-row {kind} comprehension filters a row "
                           f"range element by element; clip or subtract "
                           f"with IntervalSet (repro.core.intervals) "
                           f"instead — O(spans), not O(rows)")
                return

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_row_comprehension(node)
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._check_row_comprehension(node)
        self.generic_visit(node)

    # -- DYN101 / DYN401 / DYN601: calls --------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if "DYN601" in self.active:
            if isinstance(node.func, ast.Name) and node.func.id == "print":
                self._emit(node, "DYN601",
                           "bare `print(...)` in library code; record a "
                           "dynscope span/metric (repro.obs) or return the "
                           "text to the caller")
            elif "DYN101" not in self.active:
                # inside deterministic zones DYN101 already flags these
                dotted = self._resolve(_dotted_name(node.func))
                if isinstance(node.func, ast.Name):
                    dotted = self.from_time.get(node.func.id, dotted)
                if dotted in _OBS_TIME_CALLS:
                    self._emit(node, "DYN601",
                               f"`{dotted}()` is ad-hoc wallclock timing; "
                               f"use the repro.sysmon timers (HrTimer/"
                               f"ProcClock) or a dynscope span (repro.obs)")
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
            and len(node.args) == 1
            and self._is_row_range(node.args[0])
        ):
            self._emit(node, "DYN401",
                       f"`{node.func.id}(range(lo, hi))` materializes "
                       f"one hash-set entry per row in a data-plane hot "
                       f"path; use IntervalSet.span "
                       f"(repro.core.intervals) — O(1), not O(rows)")
        self._check_farm_call(node)
        if "DYN101" in self.active:
            dotted = self._resolve(_dotted_name(node.func))
            if dotted is not None:
                if dotted in _BANNED_CALLS:
                    self._emit(node, "DYN101",
                               f"`{dotted}()` reads wallclock/entropy inside a "
                               f"deterministic zone; use simulator time "
                               f"(`sim.now`) or a seeded stream")
                elif dotted.startswith("random."):
                    self._emit(node, "DYN101",
                               f"`{dotted}()` uses the global random state; "
                               f"use the cluster's seeded StreamRegistry")
                elif dotted.startswith("numpy.random."):
                    attr = dotted.split(".", 2)[2]
                    if attr not in _NP_RANDOM_ALLOWED:
                        self._emit(node, "DYN101",
                                   f"`{dotted}()` draws from numpy's global "
                                   f"random state; construct a seeded "
                                   f"Generator instead")
                    elif attr == "default_rng" and not node.args and not node.keywords:
                        self._emit(node, "DYN101",
                                   "`default_rng()` without a seed is entropy-"
                                   "seeded; pass an explicit seed")
            if isinstance(node.func, ast.Name) and node.func.id in self.from_random:
                self._emit(node, "DYN101",
                           f"`{node.func.id}()` (from random) uses the global "
                           f"random state; use a seeded stream")
        self.generic_visit(node)

    # -- DYN1101: farm-protocol access outside its home -----------------
    def _check_farm_call(self, node: ast.Call) -> None:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if name == "Window":
            self._emit(node, "DYN1101",
                       "ad-hoc RMA `Window(...)` construction in library "
                       "code; one-sided windows belong to repro.mpi.rma "
                       "(and the farm runtime that consumes them)")
            return
        if name not in _FARM_TAG_SINKS:
            return
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if (
                isinstance(arg, ast.Constant)
                and type(arg.value) is int
                and _FARM_TAG_LO <= arg.value < _FARM_TAG_HI
            ):
                self._emit(node, "DYN1101",
                           f"raw tag {arg.value} is inside the reserved "
                           f"farm wire-protocol band "
                           f"[{_FARM_TAG_LO}, {_FARM_TAG_HI}); application "
                           f"code must not splice into the master/worker "
                           f"conversation — use repro.farm (TAG_* "
                           f"constants) or a tag outside the band")
                return


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """The rules over a bare source string, as ``check`` reports it
    for a file at ``path`` (every zone is derived from ``path``):
    parse (DYN000 on failure), visit, drop ``# dyn: ok(...)`` waivers."""
    try:
        visitor = _Linter(path)
        visitor.visit(ast.parse(source, filename=path))
        findings = sorted(visitor.findings, key=lambda f: (f.line, f.col))
    except SyntaxError as exc:
        findings = [Finding(path, exc.lineno or 0, exc.offset or 0, "DYN000",
                            f"syntax error: {exc.msg}")]
    lines = source.splitlines()
    return [f for f in findings if not is_suppressed(f, lines)]


def lint_file(path: pathlib.Path) -> list[Finding]:
    return lint_source(path.read_text(encoding="utf-8"), str(path))
