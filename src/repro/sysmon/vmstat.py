"""The unreliable ``vmstat``-style monitor (paper Section 4.2).

The paper reports that vmstat-based load determination is unreliable
because "processes that have voluntarily relinquished the processor
because they are blocked at a receive are not reported".  This monitor
reproduces that failure mode faithfully: it samples the instantaneous
count of runnable processes with *no* special-casing of the monitored
application.  It exists as the baseline that motivates ``dmpi_ps`` and
is compared against it in tests and the monitor ablation bench.
"""

from __future__ import annotations

from ..errors import SimulationError
from ..simcluster import Cluster, ProcState, Sleep, to_s

__all__ = ["Vmstat"]


class Vmstat:
    def __init__(self, cluster: Cluster, interval: float = 1.0):
        if interval <= 0:
            raise SimulationError("vmstat interval must be positive")
        self.cluster = cluster
        self.interval = interval
        self._latest: list[int] = [0] * cluster.n_nodes
        self._history: list[list[tuple[float, int]]] = [[] for _ in range(cluster.n_nodes)]
        self._started = False

    def start(self) -> None:
        if self._started:
            raise SimulationError("vmstat already started")
        self._started = True
        for node_id in range(self.cluster.n_nodes):
            self.cluster.sim.spawn(
                self._daemon(node_id), name=f"vmstat@n{node_id}", daemon=True
            )

    def _daemon(self, node_id: int):
        while True:
            node = self.cluster.nodes[node_id]
            load = sum(
                1
                for _, state, _ in node.process_table()
                if state in (ProcState.RUNNING, ProcState.READY)
            )
            self._latest[node_id] = load
            self._history[node_id].append((to_s(self.cluster.sim.now), load))
            yield Sleep(self.interval)

    def load(self, node_id: int) -> int:
        return self._latest[node_id]

    def history(self, node_id: int) -> list[tuple[float, int]]:
        return list(self._history[node_id])
