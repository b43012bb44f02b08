"""dynperf — interprocedural hot-path cost analysis.

PR 8 rebuilt the DES hot path for 1000-rank scenarios; dynperf is the
guard that keeps those constant factors from silently creeping back.  It infers the
**hot zone** — every function reachable from the kernel event loop,
``SimComm._try_match``/``_deliver``, per-NIC serialization, and the
per-cycle runtime/balance/redistribute path (:mod:`.hotzone`) — and
runs per-iteration cost rules (DYN1001–DYN1006, :mod:`.rules`) only
inside it, scaled by a static *heat* score derived from loop-nesting
depth along call chains.

Optionally, ``--profile trace.json`` joins a dynscope trace export:
measured per-phase exclusive time re-ranks the report so the
subsystems that actually burn the cycles sort first, and each finding
records the measured share of its phase as evidence.

Declare a new hot root with ``# dyn: hot`` on its ``def`` line.
:func:`analyze` is the ``perf`` pass of ``python -m repro.analysis
check``: it takes the registry the driver loaded and returns raw
findings; suppression comments and baselines are the driver's job.
"""

from __future__ import annotations

from typing import Optional

from ..flow.callgraph import Registry
from .hotzone import (
    HOT_DIRECTIVE,
    HotFunc,
    HotZone,
    infer_hot_zone,
    load_profile,
)
from .rules import check_function

__all__ = [
    "HOT_DIRECTIVE",
    "HotFunc",
    "HotZone",
    "analyze",
    "infer_hot_zone",
    "load_profile",
]


def analyze(registry: Registry, profile: Optional[dict] = None) -> tuple:
    """Infer the hot zone over the registry's indexed modules and run
    the cost rules in it.  Returns ``(findings, zone)``; when
    ``profile`` phase shares are given, each finding's ``detail``
    carries ``profile_share`` for its phase (the driver re-ranks the
    report by it)."""
    zone = infer_hot_zone(registry)
    findings = []
    for key in sorted(zone.functions):
        findings.extend(check_function(zone.functions[key], registry))
    if profile:
        for f in findings:
            f.detail["profile_share"] = round(
                profile.get(f.detail.get("phase", "other"), 0.0), 4
            )
    return findings, zone
