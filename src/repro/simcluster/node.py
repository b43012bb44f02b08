"""A simulated cluster node: one CPU plus a process table.

The process table is what the monitoring substrate (``dmpi_ps``,
``vmstat``) inspects.  It contains every attached
:class:`~repro.simcluster.kernel.SimProcess` and every
:class:`~repro.simcluster.cpu.BackgroundJob` (competing process), each
with a live scheduling state.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..config import NodeSpec
from ..errors import SimulationError
from .cpu import BackgroundJob, RoundRobinCPU
from .kernel import ProcState, Simulator, SimProcess

__all__ = ["Node"]


class Node:
    """One node of the simulated cluster."""

    def __init__(self, sim: Simulator, node_id: int, spec: NodeSpec, rng=None,
                 obs=None, on_load_change: Optional[Callable[[], None]] = None):
        self.sim = sim
        self.node_id = node_id
        self.spec = spec
        self.cpu = RoundRobinCPU(sim, spec.speed, spec.quantum, rng=rng,
                                 node_id=node_id, obs=obs)
        self.procs: list[SimProcess] = []
        self.background: dict[str, BackgroundJob] = {}
        #: called after every competitor start or stop (the cluster's
        #: ``load_version`` counter), or None
        self._on_load_change = on_load_change

    # ------------------------------------------------------------------
    # process management
    # ------------------------------------------------------------------
    def attach(self, proc: SimProcess) -> None:
        if proc.node is not None:
            raise SimulationError(f"process {proc.name} already attached to a node")
        proc.node = self
        self.procs.append(proc)

    def detach(self, proc: SimProcess) -> None:
        if proc in self.procs:
            self.procs.remove(proc)

    # ------------------------------------------------------------------
    # competing processes
    # ------------------------------------------------------------------
    def start_competing(self, name: Optional[str] = None) -> str:
        """Start a CPU-bound competing process; returns its name."""
        if name is None:
            name = f"cp{len(self.background)}@n{self.node_id}"
        if name in self.background:
            raise SimulationError(f"competing process {name!r} already exists")
        bg = BackgroundJob(name)
        bg.node = self
        self.background[name] = bg
        self.cpu.add_background(bg)
        if self._on_load_change is not None:
            self._on_load_change()
        return name

    def stop_competing(self, name: str) -> None:
        bg = self.background.pop(name, None)
        if bg is None:
            raise SimulationError(f"no competing process {name!r} on node {self.node_id}")
        self.cpu.remove_background(bg)
        if self._on_load_change is not None:
            self._on_load_change()

    def stop_all_competing(self) -> None:
        for name in list(self.background):
            self.stop_competing(name)

    @property
    def n_competing(self) -> int:
        return len(self.background)

    # ------------------------------------------------------------------
    # process table (what ps / vmstat see)
    # ------------------------------------------------------------------
    def process_table(self) -> list[tuple[str, str, int]]:
        """Return ``(name, state, cpu_time)`` (ns) for every live process."""
        rows = [(p.name, p.state, p.cpu_time) for p in self.procs]
        rows.extend((b.name, b.state, b.cpu_time) for b in self.background.values())
        return rows

    def runnable_count(self) -> int:
        """Number of processes in RUNNING or READY state."""
        return sum(
            1
            for _, state, _ in self.process_table()
            if state in (ProcState.RUNNING, ProcState.READY)
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Node {self.node_id} procs={len(self.procs)} cp={self.n_competing}>"
