"""Cluster assembly: simulator + nodes + network + services.

A :class:`Cluster` is the top-level substrate object.  Everything else
— the MPI layer, the monitoring daemons, the Dyn-MPI runtime — hangs
off it.
"""

from __future__ import annotations

from typing import Optional

from ..analysis.sanitizer import CommSanitizer, sanitizer_enabled
from ..config import ClusterSpec
from ..obs.recorder import ObsRecorder, obs_enabled
from .kernel import Simulator, to_s
from .network import Network
from .node import Node
from .rng import StreamRegistry
from .workload import Script

__all__ = ["Cluster"]


class Cluster:
    def __init__(self, spec: ClusterSpec):
        self.spec = spec
        self.sim = Simulator(perturb=spec.perturb)
        self.rng = StreamRegistry(spec.seed)
        #: dynscope recorder (``repro.obs``) — the one place every layer
        #: reports to — or None when off: each instrumented site, the
        #: CPU scheduler and the NIC model included, guards its hook
        #: with one None test
        self.obs: Optional[ObsRecorder] = None
        if obs_enabled(spec):
            self.obs = ObsRecorder(clock=lambda: to_s(self.sim.now))
        #: bumped on every competitor start or stop on any node, so a
        #: reader of :meth:`competing_counts` can tell nothing changed
        self.load_version = 0
        self.nodes = [
            Node(self.sim, i, spec.node, rng=self.rng.stream(f"cpu{i}"),
                 obs=self.obs, on_load_change=self._load_changed)
            for i in range(spec.n_nodes)
        ]
        self.network = Network(self.sim, spec.network, spec.n_nodes,
                               obs=self.obs)
        #: the installed load and fault scripts, in install order (the
        #: order their cycle triggers fire in)
        self.scripts: list[Script] = []
        self.sanitizer: Optional[CommSanitizer] = None
        if sanitizer_enabled(spec):
            self.sanitizer = CommSanitizer()
            self.sim.on_block = self.sanitizer.check_deadlock

    @property
    def n_nodes(self) -> int:
        return self.spec.n_nodes

    def install_script(self, script: Script) -> None:
        self.scripts.append(script)
        script.install(self)

    def notify_cycle(self, cycle: int) -> None:
        """Called by the runtime at phase-cycle boundaries so that
        cycle-triggered load and failure scripts can fire."""
        for script in self.scripts:
            script.on_cycle(cycle)

    def _load_changed(self) -> None:
        self.load_version += 1

    def competing_counts(self) -> list[int]:
        return [len(node.background) for node in self.nodes]

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Cluster {self.spec.name} n={self.n_nodes} t={to_s(self.sim.now):.3f}>"
