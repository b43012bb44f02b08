"""Competing-process workload scripts.

The paper's experiments introduce competing processes ("programs that
execute an infinite loop") on specific nodes at specific points of the
run — usually *at iteration k* of the application.  A
:class:`TimeTrigger` fires at an absolute simulated time, a
:class:`CycleTrigger` when the application begins a phase cycle (the
runtime reports cycle boundaries through :meth:`Script.on_cycle`).

A :class:`LoadScript` is a collection of triggers.  Its base
:class:`Script` is the one trigger mechanism, shared with the fault
scripts of :mod:`repro.resilience.failures`; ``Cluster.install_script``
binds either kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from ..errors import ConfigError
from ..obs.recorder import CPU_TID
from .cpu import BackgroundJob
from .kernel import to_ns

if TYPE_CHECKING:  # pragma: no cover
    from .cluster import Cluster

__all__ = ["TimeTrigger", "CycleTrigger", "Script", "LoadScript", "single_competitor"]


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


class Script:
    """An ordered set of time and cycle triggers applied to a cluster.

    The one trigger mechanism: the competing-load script here and the
    fault script of :mod:`repro.resilience.failures` differ only in
    what :meth:`_apply` does with a trigger.
    """

    def __init__(self, time_triggers: Iterable = (), cycle_triggers: Iterable = ()):
        self.time_triggers = sorted(time_triggers, key=lambda t: t.time)
        self.cycle_triggers = sorted(cycle_triggers, key=lambda t: t.cycle)
        #: node id -> competitors this script started on that node
        self._handles: dict[int, list[BackgroundJob]] = {}
        self._fired_cycles: set[int] = set()
        self._cluster: Optional["Cluster"] = None

    # -- lifecycle ---------------------------------------------------------
    def install(self, cluster: "Cluster") -> None:
        """Bind to a cluster and schedule the time-based triggers."""
        self._cluster = cluster
        for trig in self.time_triggers:
            cluster.sim.schedule(to_ns(trig.time) - cluster.sim.now,
                                 self._fire, trig)

    def on_cycle(self, cycle: int) -> None:
        """Called by the runtime (rank 0) at each phase-cycle start."""
        if cycle in self._fired_cycles:
            return
        self._fired_cycles.add(cycle)
        for trig in self.cycle_triggers:
            if trig.cycle == cycle:
                self._fire(trig)

    # -- internals -----------------------------------------------------------
    def _fire(self, trig) -> None:
        if self._cluster is None:
            raise ConfigError(f"{type(self).__name__} not installed on a cluster")
        self._apply(self._cluster, trig)

    def _apply(self, cluster: "Cluster", trig) -> None:
        raise NotImplementedError

    def _start(self, node_id: int, count: int) -> list[BackgroundJob]:
        """Start ``count`` competitors on ``node_id``; returns their handles."""
        node = self._cluster.nodes[node_id]
        started = [node.background[node.start_competing()] for _ in range(count)]
        self._handles.setdefault(node_id, []).extend(started)
        return started

    def _held(self, node_id: int) -> list[BackgroundJob]:
        """This script's competitors on ``node_id``, oldest first; it
        forgets those the node no longer runs (a crash stops them)."""
        running = self._cluster.nodes[node_id].background
        held = self._handles[node_id] = [
            bg for bg in self._handles.get(node_id, ()) if running.get(bg.name) is bg]
        return held

    def _stop(self, node_id: int, handles: Iterable[BackgroundJob]) -> None:
        """Stop those of ``handles`` the node still runs, in order."""
        for bg in handles:
            if bg in self._held(node_id):
                self._cluster.nodes[node_id].stop_competing(bg.name)


class LoadScript(Script):
    """Competing processes started and stopped by :class:`TimeTrigger`
    and :class:`CycleTrigger` s."""

    def _apply(self, cluster: "Cluster", trig) -> None:
        if trig.action == "start":
            self._start(trig.node, trig.count)
        else:  # the newest first
            self._stop(trig.node, self._held(trig.node)[::-1][:trig.count])
        if cluster.obs is not None:
            cluster.obs.instant(f"load.{trig.action}", cat="load", pid=trig.node,
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
