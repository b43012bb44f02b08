"""Fault-injection scripts.

A :class:`FailureScript` is an ordered set of time- or cycle-triggered
faults applied to a cluster: a :class:`~repro.simcluster.workload.Script`
whose triggers are faults.  Five fault kinds are supported:

``crash``
    Fail-stop node failure, recoverable when
    :class:`~repro.config.ResilienceSpec` is enabled.  The node records
    the crash time (``Node.crashed_at``), its ``dmpi_ps`` daemon stops
    publishing (so the heartbeat goes stale — the detectable
    signature), its competing processes stop, and the
    Dyn-MPI runtime excises the node at the next phase-cycle boundary,
    replaying its rows from the buddy checkpoint.  The fail-stop unit
    is the phase cycle: a crash injected mid-cycle takes effect at the
    boundary, which is what lets the survivors recover in lockstep
    without a full ULFM-style communicator-shrink protocol.

``kill`` / ``inject``
    Hard, *immediate* process death (``Simulator.kill`` /
    ``Simulator.inject``) of every process spawned on the node, with no
    recovery guarantee; the node records the time (``Node.killed_at``),
    so ``run_spmd`` tolerates the deaths.  Survivors blocked
    on the dead rank get :class:`~repro.errors.RankFailedError` from
    the comm layer's dead-endpoint poisoning instead of hanging.

``slowdown``
    A transient load burst: ``count`` competing processes appear on the
    node and (optionally) disappear ``duration`` seconds later.

``partition`` / ``heal``
    Cut the network between a node island and the rest of the cluster;
    in-flight and new messages across the cut are *delayed until heal*,
    never dropped (a healed partition delivers everything, so protocols
    above need no retransmission logic).

All direct ``Simulator.kill``/``inject`` use in the library lives in
this package: a kill that bypasses the node's fault record and
``terminate_rank`` leaves the runtime's crash accounting behind, which
the crash-recovery tests catch (``tests/test_resilience.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Iterable, Optional

from ..errors import ConfigError, ReproError, SimulationError
from ..obs.recorder import CPU_TID
from ..simcluster.kernel import to_ns
from ..simcluster.workload import Script

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcluster.cluster import Cluster

__all__ = [
    "TimeFault",
    "CycleFault",
    "FailureScript",
    "InjectedFault",
    "node_crash",
    "terminate_rank",
]

_ACTIONS = ("crash", "kill", "inject", "slowdown", "partition", "heal")


class InjectedFault(ReproError):
    """The exception delivered into a process by an ``inject`` fault."""


def _validate(action: str, count: int, duration: float, peers: tuple) -> None:
    if action not in _ACTIONS:
        raise ConfigError(f"bad fault action {action!r} (one of {_ACTIONS})")
    if count < 1:
        raise ConfigError("count must be >= 1")
    if duration < 0:
        raise ConfigError("duration must be >= 0")
    if action in ("partition", "heal") and not all(
        isinstance(p, int) and p >= 0 for p in peers
    ):
        raise ConfigError("peers must be non-negative node ids")


@dataclass(frozen=True)
class TimeFault:
    """Apply ``action`` to ``node`` at absolute simulated ``time``.

    ``count``/``duration`` parameterize ``slowdown``; ``peers`` extends
    the isolated island for ``partition`` (the island is ``{node} |
    set(peers)``).
    """

    time: float
    node: int
    action: str
    count: int = 1
    duration: float = 0.0
    peers: tuple = ()

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigError("fault time must be >= 0")
        _validate(self.action, self.count, self.duration, self.peers)


@dataclass(frozen=True)
class CycleFault:
    """Apply ``action`` to ``node`` when the application begins phase
    cycle ``cycle`` (0-based)."""

    cycle: int
    node: int
    action: str
    count: int = 1
    duration: float = 0.0
    peers: tuple = ()

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ConfigError("fault cycle must be >= 0")
        _validate(self.action, self.count, self.duration, self.peers)


class FailureScript(Script):
    """An ordered set of fault triggers applied to a cluster."""

    def __init__(
        self,
        time_faults: Iterable[TimeFault] = (),
        cycle_faults: Iterable[CycleFault] = (),
    ):
        super().__init__(time_faults, cycle_faults)

    def _apply(self, cluster: "Cluster", fault) -> None:
        getattr(self, f"_apply_{fault.action}")(cluster, fault)
        if cluster.obs is not None:
            cluster.obs.instant(f"fault.{fault.action}", cat="fault",
                                pid=fault.node, tid=CPU_TID)

    def _apply_crash(self, cluster: "Cluster", fault) -> None:
        node = cluster.nodes[fault.node]
        node.mark_crashed()
        # a dead node runs nothing: its competing load disappears with it
        node.stop_all_competing()

    def _apply_kill(self, cluster: "Cluster", fault) -> None:
        for proc in self._kill_targets(cluster, fault.node):
            cluster.sim.kill(proc)

    def _apply_inject(self, cluster: "Cluster", fault) -> None:
        for proc in self._kill_targets(cluster, fault.node):
            cluster.sim.inject(
                proc, InjectedFault(f"fault injected into {proc.name}")
            )

    def _apply_slowdown(self, cluster: "Cluster", fault) -> None:
        started = self._start(fault.node, fault.count)
        if fault.duration > 0:
            cluster.sim.schedule(to_ns(fault.duration), self._stop,
                                 fault.node, started)

    def _apply_partition(self, cluster: "Cluster", fault) -> None:
        cluster.network.partition({fault.node, *fault.peers})

    def _apply_heal(self, cluster: "Cluster", fault) -> None:
        cluster.network.heal()

    @staticmethod
    def _kill_targets(cluster: "Cluster", node_id: int) -> list:
        """Record a kill on the node; return every process spawned there."""
        node = cluster.nodes[node_id]
        node.mark_killed()
        if not node.procs:
            raise SimulationError(
                f"fault targets node {node_id} but no application process "
                f"was spawned there (launch the job first)"
            )
        return node.procs


def node_crash(node: int, *, at_cycle: Optional[int] = None,
               at_time: Optional[float] = None) -> FailureScript:
    """The canonical recoverable-failure scenario: one node crashes at
    a given cycle (or absolute time)."""
    if (at_cycle is None) == (at_time is None):
        raise ConfigError("give exactly one of at_cycle / at_time")
    if at_cycle is not None:
        return FailureScript(cycle_faults=[
            CycleFault(cycle=at_cycle, node=node, action="crash")
        ])
    return FailureScript(time_faults=[
        TimeFault(time=at_time, node=node, action="crash")
    ])


def terminate_rank(ctx, reason: str = "node crash") -> Generator:
    """Fail-stop self-termination of a Dyn-MPI rank (the victim side of
    the crash protocol in :meth:`repro.core.runtime.DynMPI.begin_cycle`).

    Marks the context crashed so the launcher can tell this expected
    death from an application bug, schedules an uncatchable kill, and
    parks the generator on a signal that never fires — the kill closes
    the generator right there, so no further application code runs.
    """
    from ..simcluster.syscalls import Wait

    ctx.crashed = True
    ctx.active = False
    sim = ctx.job.cluster.sim
    sim.kill(ctx.proc)
    yield Wait(sim.signal(f"crashed:rank{ctx.world_rank}:{reason}"))
    raise SimulationError(
        f"rank {ctx.world_rank} survived termination ({reason})"
    )  # pragma: no cover - the kill always lands first
