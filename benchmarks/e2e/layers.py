"""Source file -> layer table and host-time attribution.

Layers are this repo's modules.  The host-traced run executes a
workload under ``cProfile`` (a function-boundary tracer) with built-in
tracing off, so the time spent in C built-ins and numpy ufuncs is
already part of the calling Python function's self time.  Each
function's self time and call count is charged to the layer that owns
its source file; functions in files outside ``repro`` (numpy's Python
wrappers, the standard library) are charged to the layers of their
callers, in proportion to the time each caller spent in them, through
the profiler's callers table.

cProfile adds a fixed cost to every call, so layers made of many tiny
calls look larger than they are: shares compare two versions of one
program, they are not absolute.
"""

from __future__ import annotations

import pathlib

#: first match wins; paths are relative to ``src/repro``
LAYER_TABLE = (
    ("simcluster/kernel", "simcluster.kernel"),   # kernel.py, kernel_reference.py
    ("simcluster/syscalls.py", "simcluster.kernel"),
    ("simcluster/cpu.py", "simcluster.cpu"),
    ("simcluster/node.py", "simcluster.cpu"),
    ("simcluster/network.py", "simcluster.network"),
    ("mpi/collectives.py", "mpi.collectives"),
    ("mpi/rma.py", "mpi.rma"),
    ("mpi/", "mpi.comm"),                          # comm, group, datatypes, launcher, status
    ("core/balance.py", "core.balance"),
    ("core/distribution.py", "core.balance"),
    ("core/redistribute.py", "core.redistribute"),
    ("core/drsd.py", "core.redistribute"),
    ("core/intervals.py", "core.redistribute"),
    ("_intervals.py", "core.redistribute"),
    ("core/reference.py", "other"),                # set oracle, not a runtime layer
    ("core/", "core.runtime"),  # runtime, removal, loadmon, timing, capi, commcost, phase, power
    ("dmem/", "dmem"),
    ("apps/", "apps"),
    ("sysmon/", "sysmon"),
    ("farm/", "farm"),
    ("resilience/", "resilience"),
    ("obs/", "obs"),
    ("analysis/", "analysis"),
    ("campaign/", "campaign"),
)

LAYERS = (
    "simcluster.kernel", "simcluster.cpu", "simcluster.network",
    "mpi.comm", "mpi.collectives", "mpi.rma",
    "core.runtime", "core.balance", "core.redistribute",
    "dmem", "apps", "sysmon", "farm", "resilience", "obs", "analysis",
    "campaign", "other",
)


def layer_of(filename: str) -> str | None:
    """The layer owning ``filename``; ``"other"`` for repro files in no
    named layer; None for files outside the package (charged to their
    callers)."""
    parts = pathlib.PurePath(filename).parts
    if "repro" not in parts:
        return None
    rel = "/".join(parts[len(parts) - parts[::-1].index("repro"):])
    for prefix, layer in LAYER_TABLE:
        if rel.startswith(prefix):
            return layer
    return "other"


def attribute_profile(stats: dict) -> dict:
    """Per-layer ``{"self_s", "calls"}`` from ``cProfile.Profile.stats``
    (``func -> (cc, nc, tottime, cumtime, callers)`` with ``func =
    (filename, lineno, name)``)."""
    out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    shares_memo: dict = {}

    def shares(func) -> dict:
        """layer -> fraction of ``func``'s self time it is charged."""
        own = layer_of(func[0])
        if own is not None:
            return {own: 1.0}
        if func in shares_memo:
            return shares_memo[func]
        shares_memo[func] = {"other": 1.0}   # breaks caller cycles
        callers = stats[func][4] if func in stats else {}
        weights = {c: entry[2] for c, entry in callers.items() if c in stats}
        total = sum(weights.values())
        if total <= 0.0:
            return shares_memo[func]
        mix: dict = {}
        for caller, w in weights.items():
            for layer, frac in shares(caller).items():
                mix[layer] = mix.get(layer, 0.0) + frac * w / total
        shares_memo[func] = mix
        return mix

    for func, (_cc, ncalls, tottime, _ct, _callers) in stats.items():
        own = layer_of(func[0])
        if own is not None:
            out[own]["calls"] += ncalls
        for layer, frac in shares(func).items():
            out[layer]["self_s"] += tottime * frac
    return out
