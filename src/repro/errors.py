"""Exception hierarchy for the Dyn-MPI reproduction.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class DeadlockError(SimulationError):
    """The event queue drained while processes were still blocked.

    This is the simulated analogue of an MPI job hanging: every live
    process is waiting on a message or event that can never arrive.
    """

    def __init__(self, blocked: list[str]):
        self.blocked = list(blocked)
        names = ", ".join(blocked) or "<none>"
        super().__init__(f"simulation deadlock; blocked processes: {names}")


class SanitizerError(ReproError):
    """The sanitizer (``repro.analysis``) found a correctness violation:
    an unmatched send/recv, a mismatched collective, an inconsistent
    redistribution plan, or a diverged replica of the adaptation state."""


class CommDeadlockError(DeadlockError):
    """The runtime sanitizer found a wait-for cycle among blocked ranks.

    Unlike :class:`DeadlockError` (raised only when the event heap
    drains), this fires the moment the cycle closes, so simulations
    with periodic daemons fail fast instead of hanging.
    """

    def __init__(self, cycle: list[int], ops: dict[int, str]):
        self.cycle = list(cycle)
        self.ops = dict(ops)
        parts = "; ".join(f"rank {r} {ops.get(r, 'blocked')}" for r in self.cycle)
        # bypass DeadlockError.__init__ message formatting but keep its API
        self.blocked = [f"rank{r}" for r in self.cycle]
        Exception.__init__(
            self, f"communication deadlock among ranks "
            f"{self.cycle}: {parts}"
        )


class PlanCheckError(ReproError):
    """A redistribution plan failed static verification."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "\n  ".join(str(v) for v in self.violations)
        super().__init__(
            f"redistribution plan failed verification "
            f"({len(self.violations)} violation(s)):\n  {lines}"
        )


class MPIError(ReproError):
    """Misuse of the simulated MPI layer (bad rank, tag, truncation...)."""


class RankFailedError(MPIError):
    """A point-to-point operation involved a rank whose process has died.

    Raised by the comm layer's dead-endpoint poisoning (repro.resilience):
    instead of blocking forever on a message a failed rank will never
    send — or accept — the survivor gets an immediate diagnostic.
    """

    def __init__(self, rank: int, op: str = "communicate with"):
        self.rank = rank
        super().__init__(f"cannot {op} rank {rank}: its process has failed")


class CheckpointLostError(ReproError):
    """A crashed rank's rows cannot be replayed: every buddy holding a
    replica of its checkpoint has failed too.  Raising replication in
    :class:`~repro.config.ResilienceSpec` tolerates more simultaneous
    failures at the cost of more checkpoint traffic."""


class RegistrationError(ReproError):
    """Invalid Dyn-MPI array/phase registration."""


class DistributionError(ReproError):
    """An invalid data distribution was constructed or requested."""


class RedistributionError(ReproError):
    """Data redistribution could not be scheduled or applied."""


class AllocationError(ReproError):
    """Invalid operation on a managed (dense/sparse) matrix."""


class ConfigError(ReproError):
    """Invalid cluster/network/runtime configuration."""


class FarmError(ReproError):
    """The task farm cannot make progress (e.g. every worker died
    with jobs outstanding)."""
