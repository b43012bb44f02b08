"""A simulated cluster node: one CPU, a process table and a fault record.

The node is the one record of what runs on it: ``procs`` holds every
:class:`~repro.simcluster.kernel.SimProcess` spawned there, finished
ones included, in spawn order (the ``kill`` / ``inject`` fault targets
and what ``dmpi_ps`` always counts while live), and ``background`` every
:class:`~repro.simcluster.cpu.BackgroundJob` (competing process).  The
process table the monitoring substrate (``dmpi_ps``, ``vmstat``)
inspects is the live part of both, each row with its scheduling state.

The node also records its own faults: the simulated time of its first
``crash`` and of its first ``kill`` / ``inject``, written only by
:class:`~repro.resilience.failures.FailureScript`.
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
        #: every process spawned on the node, finished ones included
        self.procs: list[SimProcess] = []
        #: sim time (ns) of the node's first crash fault, and of its
        #: first kill or inject fault, or None
        self.crashed_at: Optional[int] = None
        self.killed_at: Optional[int] = None
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

    # ------------------------------------------------------------------
    # faults (written by FailureScript only; the first time of each wins)
    # ------------------------------------------------------------------
    def mark_crashed(self) -> None:
        if self.crashed_at is None:
            self.crashed_at = self.sim.now

    def mark_killed(self) -> None:
        if self.killed_at is None:
            self.killed_at = self.sim.now

    @property
    def failed(self) -> bool:
        """Any injected fault: a crash or a hard process kill."""
        return self.crashed_at is not None or self.killed_at is not None

    # ------------------------------------------------------------------
    # competing processes
    # ------------------------------------------------------------------
    def start_competing(self, name: Optional[str] = None) -> str:
        """Start a CPU-bound competing process; returns its name
        (by default ``cp{i}@n{node}`` with the lowest free ``i``)."""
        if name is None:
            i = 0
            while f"cp{i}@n{self.node_id}" in self.background:
                i += 1
            name = f"cp{i}@n{self.node_id}"
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

    # ------------------------------------------------------------------
    # process table (what ps / vmstat see)
    # ------------------------------------------------------------------
    def live_procs(self) -> list[SimProcess]:
        """The node's processes that have neither finished nor died."""
        return [p for p in self.procs
                if p.state not in (ProcState.DONE, ProcState.FAILED)]

    def process_table(self) -> list[tuple[str, str, int]]:
        """Return ``(name, state, cpu_time)`` (ns) for every live process."""
        rows = [(p.name, p.state, p.cpu_time) for p in self.live_procs()]
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
        return f"<Node {self.node_id} procs={len(self.procs)} cp={len(self.background)}>"
