"""Interprocedural hot-zone inference for dynperf.

The *hot zone* is the set of functions that run per simulated event or
per runtime cycle — the code whose constant factors the
end-to-end benchmark (``benchmarks/e2e``) measures.  It is inferred, not
declared: reachability over dynflow's call graph
(:class:`repro.analysis.flow.callgraph.Registry`), rooted at

* the DES kernel event loop — every function in
  ``simcluster/kernel.py`` (the engine *is* the per-event path);
* message matching — ``SimComm._try_match`` / ``SimComm._deliver``
  (``mpi/comm.py``), the per-receive mailbox scan;
* per-NIC serialization — every function in ``simcluster/network.py``;
* the per-cycle runtime path — ``DynMPI.begin_cycle`` / ``end_cycle``
  / ``compute`` / ``global_reduce`` (``core/runtime.py``), which pulls
  in balance/redistribute/collectives through call edges;
* the collective algorithms (``mpi/collectives.py``);
* any function whose ``def`` line carries a ``# dyn: hot``
  directive — how future hot paths (and the test fixtures) opt in
  without a registry edit.

Each root enters with **heat 1** ("runs once per event/cycle").  Heat
propagates along call edges with the call site's loop-nesting depth
added (:func:`repro.analysis.flow.cfg.loop_depth_map`): a helper
invoked from a doubly nested loop in a heat-1 function has heat 3 —
it runs O(n^2) times per event.  Cycles converge because heat is
capped at :data:`HEAT_CAP` and only ever increases.  ``self.method``
calls resolve through :meth:`Registry.resolve_method_call`; dynflow
itself never follows those edges, but the per-cycle path is
method-to-method.

``--profile`` re-ranking: a dynscope trace's measured per-phase
exclusive times (:func:`repro.obs.report.phase_shares`) scale each
function's static heat by ``1 + share(phase)`` of the phase its file
belongs to, so measured-hot subsystems sort first in reports and
carry the evidence in each finding's ``detail``.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass

from ..flow.callgraph import FuncInfo, Registry
from ..flow.cfg import loop_depth_map

__all__ = [
    "HEAT_CAP",
    "HOT_DIRECTIVE",
    "HotFunc",
    "HotZone",
    "RootSpec",
    "ROOT_SPECS",
    "infer_hot_zone",
    "load_profile",
]

#: heat saturates here: recursion and pathological chains terminate,
#: and "runs O(n^5) per event" needs no finer grading than "worst"
HEAT_CAP = 6

#: marker on a ``def`` line that declares the function a hot root
HOT_DIRECTIVE = "dyn: hot"


@dataclass(frozen=True)
class RootSpec:
    """A family of hot roots picked out by path (and optionally
    qualified names — empty means every function in the file)."""

    kind: str
    dir_part: str
    file_prefix: str
    quals: tuple = ()

    def matches(self, fi: FuncInfo) -> bool:
        path = pathlib.Path(fi.path)
        if self.dir_part not in path.parts:
            return False
        if not path.name.startswith(self.file_prefix):
            return False
        return not self.quals or fi.qualname in self.quals


ROOT_SPECS: tuple = (
    RootSpec("kernel", "simcluster", "kernel.py"),
    RootSpec("nic", "simcluster", "network.py"),
    RootSpec("match", "mpi", "comm.py",
             ("SimComm._try_match", "SimComm._deliver")),
    RootSpec("cycle", "core", "runtime.py",
             ("DynMPI.begin_cycle", "DynMPI.end_cycle",
              "DynMPI.compute", "DynMPI.global_reduce")),
    RootSpec("collective", "mpi", "collectives.py"),
)


def _phase_for(path: str) -> str:
    """The dynscope attribution phase a file's exclusive time lands
    in — the join key between static heat and a measured profile."""
    p = pathlib.Path(path)
    parts = p.parts
    if p.name in ("redistribute.py", "balance.py", "plancheck.py"):
        return "redist"
    if "resilience" in parts:
        return "ckpt"
    if "mpi" in parts or p.name == "network.py":
        return "comm"
    if p.name == "runtime.py" or "dmem" in parts or "apps" in parts:
        return "compute"
    return "other"


@dataclass
class HotFunc:
    info: FuncInfo
    heat: int
    kind: str        # root-spec kind, "directive", or "reached"
    via: str = ""    # the caller that heated a reached function
    phase: str = "other"

    def effective_heat(self, shares: dict) -> float:
        """Static heat re-ranked by a measured profile: scaled by
        ``1 + share`` of this function's attribution phase."""
        return self.heat * (1.0 + shares.get(self.phase, 0.0))


class HotZone:
    """The inferred hot functions, keyed by (module, qualname)."""

    def __init__(self):
        self.functions: dict[tuple, HotFunc] = {}

    def get(self, fi: FuncInfo):
        return self.functions.get((fi.module, fi.qualname))

    def __len__(self) -> int:
        return len(self.functions)

    def __contains__(self, fi: FuncInfo) -> bool:
        return (fi.module, fi.qualname) in self.functions

    def ranked(self, shares: dict | None = None) -> list:
        """Hot functions ordered hottest-first; with profile
        ``shares`` the measured re-ranking applies, otherwise pure
        static heat.  Deterministic: ties break on (path, qualname)."""
        shares = shares or {}
        return sorted(
            self.functions.values(),
            key=lambda hf: (-hf.effective_heat(shares),
                            hf.info.path, hf.info.qualname),
        )


def _own_calls(node: ast.AST):
    """Call expressions in ``node``'s own body, nested function
    scopes excluded (they are separate registry entries)."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        n = stack.pop()
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                          ast.Lambda)):
            continue
        if isinstance(n, ast.Call):
            yield n
        stack.extend(ast.iter_child_nodes(n))


def _root_kind(fi: FuncInfo, def_line: str) -> str:
    if HOT_DIRECTIVE in def_line:
        return "directive"
    for spec in ROOT_SPECS:
        if spec.matches(fi):
            return spec.kind
    return ""


def infer_hot_zone(registry: Registry) -> HotZone:
    """Roots + heat-propagating reachability closure (BFS, highest
    heat wins, deterministic order)."""
    zone = HotZone()
    worklist: list[tuple] = []
    for mod in sorted(registry.modules.values(), key=lambda m: m.path):
        for qual in sorted(mod.functions):
            fi = mod.functions[qual]
            kind = _root_kind(fi, mod.line(fi.node.lineno))
            if kind:
                zone.functions[(fi.module, fi.qualname)] = HotFunc(
                    fi, heat=1, kind=kind, phase=_phase_for(fi.path)
                )
                worklist.append((fi.module, fi.qualname))

    while worklist:
        key = worklist.pop(0)
        hf = zone.functions[key]
        depths = loop_depth_map(hf.info.node)
        for call in sorted(_own_calls(hf.info.node),
                           key=lambda c: (c.lineno, c.col_offset)):
            callee = (registry.resolve_call(call, hf.info)
                      or registry.resolve_method_call(call, hf.info))
            if callee is None:
                continue
            heat = min(HEAT_CAP, hf.heat + depths.get(id(call), 0))
            ckey = (callee.module, callee.qualname)
            cur = zone.functions.get(ckey)
            if cur is not None and cur.heat >= heat:
                continue
            zone.functions[ckey] = HotFunc(
                callee, heat,
                kind=cur.kind if cur is not None else "reached",
                via=hf.info.qualname if cur is None or cur.kind == "reached"
                else cur.via,
                phase=_phase_for(callee.path),
            )
            worklist.append(ckey)
    return zone


def load_profile(trace_path: str) -> dict:
    """Measured per-phase shares from a dynscope trace export (either
    format) — the ``--profile`` join.  Raises OSError/ValueError for
    unreadable or malformed traces (the driver maps those to exit 2)."""
    from ...obs.export import load_trace
    from ...obs.report import attribute, phase_shares

    _meta, events = load_trace(trace_path)
    return phase_shares(attribute(events))
