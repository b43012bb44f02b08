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
from ..resilience.board import FailureBoard
from .kernel import SimProcess, Simulator
from .network import Network
from .node import Node
from .rng import StreamRegistry
from .workload import LoadScript

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
            self.obs = ObsRecorder(clock=lambda: self.sim.now)
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
        self.load_script: Optional[LoadScript] = None
        #: ground-truth node-failure state; always present (and empty)
        #: so readers need no None checks
        self.failure_board = FailureBoard(spec.n_nodes)
        self.failure_script = None
        #: node_id -> application (rank) processes launched there, the
        #: kill/inject fault targets; populated by DynMPIJob.launch
        self.app_procs: dict[int, list[SimProcess]] = {}
        self.sanitizer: Optional[CommSanitizer] = None
        if sanitizer_enabled(spec):
            self.sanitizer = CommSanitizer()
            self.sim.add_watchdog(self.sanitizer.kernel_block_hook)

    @property
    def n_nodes(self) -> int:
        return self.spec.n_nodes

    def install_load_script(self, script: LoadScript) -> None:
        self.load_script = script
        script.install(self)

    def install_failure_script(self, script) -> None:
        self.failure_script = script
        script.install(self)

    def register_app_proc(self, node_id: int, proc: SimProcess) -> None:
        self.app_procs.setdefault(node_id, []).append(proc)

    def notify_cycle(self, cycle: int) -> None:
        """Called by the runtime at phase-cycle boundaries so that
        cycle-triggered load and failure scripts can fire."""
        if self.load_script is not None:
            self.load_script.on_cycle(cycle)
        if self.failure_script is not None:
            self.failure_script.on_cycle(cycle)

    def _load_changed(self) -> None:
        self.load_version += 1

    def competing_counts(self) -> list[int]:
        return [node.n_competing for node in self.nodes]

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Cluster {self.spec.name} n={self.n_nodes} t={self.sim.now:.3f}>"
