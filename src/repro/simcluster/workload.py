"""Competing-process workload scripts.

The paper's experiments introduce competing processes ("programs that
execute an infinite loop") on specific nodes at specific points of the
run — usually *at iteration k* of the application, sometimes for a
fixed stretch of iterations.  Two trigger styles are therefore
provided:

* :class:`TimeTrigger` — fire at an absolute simulated time (applied at
  cluster start-up via the event queue);
* :class:`CycleTrigger` — fire when the application reaches a given
  phase-cycle number (the Dyn-MPI runtime reports cycle boundaries to
  the script through :meth:`LoadScript.on_cycle`).

A :class:`LoadScript` is a collection of triggers; the experiment
harness attaches it to the cluster so that both styles work together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from ..errors import ConfigError
from ..obs.recorder import CPU_TID

if TYPE_CHECKING:  # pragma: no cover
    from .cluster import Cluster

__all__ = ["TimeTrigger", "CycleTrigger", "LoadScript", "single_competitor"]


@dataclass(frozen=True)
class TimeTrigger:
    """Start/stop ``count`` competing processes on ``node`` at ``time``."""

    time: float
    node: int
    action: str  # "start" | "stop"
    count: int = 1

    def __post_init__(self) -> None:
        if self.action not in ("start", "stop"):
            raise ConfigError(f"bad action {self.action!r}")
        if self.count < 1:
            raise ConfigError("count must be >= 1")
        if self.time < 0:
            raise ConfigError("trigger time must be >= 0")


@dataclass(frozen=True)
class CycleTrigger:
    """Start/stop ``count`` competing processes when the application
    begins phase cycle ``cycle`` (0-based)."""

    cycle: int
    node: int
    action: str
    count: int = 1

    def __post_init__(self) -> None:
        if self.action not in ("start", "stop"):
            raise ConfigError(f"bad action {self.action!r}")
        if self.count < 1:
            raise ConfigError("count must be >= 1")
        if self.cycle < 0:
            raise ConfigError("cycle must be >= 0")


class LoadScript:
    """An ordered set of load triggers applied to a cluster."""

    def __init__(
        self,
        time_triggers: Iterable[TimeTrigger] = (),
        cycle_triggers: Iterable[CycleTrigger] = (),
    ):
        self.time_triggers = sorted(time_triggers, key=lambda t: t.time)
        self.cycle_triggers = sorted(cycle_triggers, key=lambda t: t.cycle)
        self._handles: dict[int, list[str]] = {}
        self._fired_cycles: set[int] = set()
        self._cluster: Optional["Cluster"] = None

    # -- lifecycle ---------------------------------------------------------
    def install(self, cluster: "Cluster") -> None:
        """Bind to a cluster and schedule the time-based triggers."""
        self._cluster = cluster
        for trig in self.time_triggers:
            cluster.sim.schedule(
                trig.time - cluster.sim.now,
                lambda trig=trig: self._apply(trig),
            )

    def on_cycle(self, cycle: int) -> None:
        """Called by the runtime (rank 0) at each phase-cycle start."""
        if cycle in self._fired_cycles:
            return
        self._fired_cycles.add(cycle)
        for trig in self.cycle_triggers:
            if trig.cycle == cycle:
                self._apply(trig)

    # -- internals -----------------------------------------------------------
    def _apply(self, trig) -> None:
        if self._cluster is None:
            raise ConfigError("LoadScript not installed on a cluster")
        node = self._cluster.nodes[trig.node]
        handles = self._handles.setdefault(trig.node, [])
        if trig.action == "start":
            for _ in range(trig.count):
                handles.append(node.start_competing())
        else:
            for _ in range(min(trig.count, len(handles))):
                node.stop_competing(handles.pop())
        obs = self._cluster.obs
        if obs is not None:
            obs.instant(f"load.{trig.action}", cat="load", pid=trig.node,
                        tid=CPU_TID, count=trig.count)


def single_competitor(
    node: int,
    *,
    start_cycle: int,
    stop_cycle: Optional[int] = None,
    count: int = 1,
) -> LoadScript:
    """The paper's canonical scenario: ``count`` competing processes
    appear on ``node`` at ``start_cycle`` (e.g. the 10th iteration) and
    optionally disappear at ``stop_cycle``."""

    triggers = [CycleTrigger(cycle=start_cycle, node=node, action="start", count=count)]
    if stop_cycle is not None:
        triggers.append(CycleTrigger(cycle=stop_cycle, node=node, action="stop", count=count))
    return LoadScript(cycle_triggers=triggers)
