"""The ``dmpi_ps`` load daemon (paper Section 4.2).

One daemon per node samples the process table every second (by
default) and publishes the node's *load*: the number of processes that
are in a running or ready state, **with the monitored application
always included** even when it is blocked at a receive.  That
inclusion is the paper's fix for the vmstat problem — an MPI process
that has voluntarily relinquished the CPU while waiting for a message
is still a consumer of the node the moment data arrives, so it must be
counted.

The Dyn-MPI runtime reads the latest local sample (a cheap local read,
exactly like reading the daemon's shared memory segment on a real
node) and exchanges samples between nodes with an allgather.
"""

from __future__ import annotations


from ..errors import SimulationError
from ..simcluster import Cluster, ProcState, Sleep, to_s
from ..simcluster.kernel import SimProcess

__all__ = ["DmpiPs"]


class DmpiPs:
    def __init__(self, cluster: Cluster, interval: float = 1.0, jitter: bool = True):
        if interval <= 0:
            raise SimulationError("daemon interval must be positive")
        self.cluster = cluster
        self.interval = interval
        self._jitter = jitter
        self._monitored: dict[int, list[SimProcess]] = {i: [] for i in range(cluster.n_nodes)}
        self._latest: list[int] = [1] * cluster.n_nodes  # before first sample: just the app
        self._history: list[list[tuple[float, int]]] = [[] for _ in range(cluster.n_nodes)]
        self._started = False

    # ------------------------------------------------------------------
    def register_monitored(self, node_id: int, proc: SimProcess) -> None:
        """Mark ``proc`` as the (or an) application process on ``node_id``."""
        self._monitored[node_id].append(proc)

    def start(self) -> None:
        """Spawn one sampling daemon per node."""
        if self._started:
            raise SimulationError("dmpi_ps already started")
        self._started = True
        rng = self.cluster.rng.stream("dmpi_ps")
        for node_id in range(self.cluster.n_nodes):
            phase = float(rng.uniform(0, self.interval)) if self._jitter else 0.0
            self.cluster.sim.spawn(
                self._daemon(node_id, phase),
                name=f"dmpi_ps@n{node_id}",
                daemon=True,
            )

    def _daemon(self, node_id: int, phase: float):
        yield Sleep(phase)
        while True:
            if self.cluster.failure_board.crashed(node_id):
                return  # a dead node samples nothing: heartbeat goes stale
            self._take_sample(node_id)
            yield Sleep(self.interval)

    def _take_sample(self, node_id: int) -> None:
        self._latest[node_id] = self._measure(node_id)
        self._history[node_id].append((to_s(self.cluster.sim.now), self._latest[node_id]))

    def _measure(self, node_id: int) -> int:
        node = self.cluster.nodes[node_id]
        monitored = self._monitored[node_id]
        monitored_ids = {id(p) for p in monitored}
        count = 0
        for proc in node.procs:
            if id(proc) in monitored_ids:
                continue  # counted unconditionally below
            if proc.state in (ProcState.RUNNING, ProcState.READY):
                count += 1
        for bg in node.background.values():
            if bg.state in (ProcState.RUNNING, ProcState.READY):
                count += 1
        # the monitored application is automatically included, even
        # while blocked at a receive
        live = sum(
            1 for p in monitored
            if p.state not in (ProcState.DONE, ProcState.FAILED)
        )
        return count + live

    # ------------------------------------------------------------------
    def load(self, node_id: int) -> int:
        """Latest published load for ``node_id`` (local read)."""
        return self._latest[node_id]

    def loads(self) -> list[int]:
        """Latest published loads of all nodes.

        NOTE: only valid as a *global* view in tests/analysis; the
        runtime itself reads locally and allgathers, as a real
        distributed system must.
        """
        return list(self._latest)

    def history(self, node_id: int) -> list[tuple[float, int]]:
        return list(self._history[node_id])

    def last_sample_time(self, node_id: int) -> float:
        """Sim time of ``node_id``'s most recent heartbeat (the failure
        detector's raw input); -inf before the first sample."""
        hist = self._history[node_id]
        return hist[-1][0] if hist else float("-inf")

    def app_alive(self, node_id: int) -> bool:
        """True while at least one monitored application process on the
        node has neither finished nor died (vacuously True when nothing
        is monitored there)."""
        monitored = self._monitored[node_id]
        if not monitored:
            return True
        return any(
            p.state not in (ProcState.DONE, ProcState.FAILED) for p in monitored
        )
