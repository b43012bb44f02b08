"""dynflow — whole-program communication-flow analysis.

The ``flow`` pass of ``python -m repro.analysis check``: build
per-function CFGs, resolve an interprocedural call graph rooted at
the application entry points, and abstractly
interpret each program into its *communication trace summary* — the
sequence of collective/p2p signatures a rank may emit along each path.

Three analyses run over the summaries:

* **collective matching** — every rank must emit the same world/active
  collective sequence; divergence across a rank-dependent branch is
  DYN501/DYN505, a rank-dependent trip count around a collective is
  DYN502;
* **removed-path send-in** — the paper's 4.4 invariant: a removed rank
  only *receives*; an active-group collective or send reachable where
  ``ctx.participating()`` is statically false is DYN503;
* **static ownership** — array accesses are evaluated against a
  witness partition and checked against the declared owned+halo
  region using the runtime's own :class:`IntervalSet`; an access
  outside it is DYN504.

The pass takes the registry the driver loaded and returns raw
findings; suppression comments and baselines are the driver's job.
"""

from __future__ import annotations

from .callgraph import Registry, load_registry
from .cfg import CFG, build_cfg
from .collectives import CollectiveAnalyzer
from .domain import CommEvent, TaintEnv, classify_call, skeleton
from .ownership import OwnershipAnalyzer

__all__ = [
    "CFG",
    "CommEvent",
    "Registry",
    "TaintEnv",
    "analyze",
    "build_cfg",
    "classify_call",
    "load_registry",
    "skeleton",
]


def analyze(registry: Registry) -> list:
    """All DYN5xx findings over the registry's indexed modules."""
    return (CollectiveAnalyzer(registry).run()
            + OwnershipAnalyzer(registry).run())
