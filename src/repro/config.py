"""Configuration dataclasses shared across the library.

The specs below describe the three layers of the reproduction:

* :class:`NodeSpec` / :class:`NetworkSpec` / :class:`ClusterSpec` — the
  simulated, non dedicated cluster (the paper's testbed substitute).
* :class:`RuntimeSpec` — tunables of the Dyn-MPI runtime itself (grace
  period lengths, monitoring cadence, drop policy), with defaults taken
  straight from the paper (5-cycle measurement grace period, 10-cycle
  post-redistribution grace period, 1 Hz ``dmpi_ps`` sampling, 10 ms
  /PROC granularity).

Two named cluster presets mirror the paper's testbeds:
:func:`pentium_cluster` (550 MHz P-III Xeon + switched 100 Mb/s
Ethernet, Sections 5.1/5.2/5.4) and :func:`ultrasparc_cluster`
(360 MHz Ultra-Sparc 5, Section 5.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .errors import ConfigError

__all__ = [
    "NodeSpec",
    "NetworkSpec",
    "ClusterSpec",
    "ResilienceSpec",
    "RuntimeSpec",
    "pentium_cluster",
    "ultrasparc_cluster",
]


@dataclass(frozen=True)
class NodeSpec:
    """A single simulated node.

    ``speed`` is in abstract *work units per second*.  Application cost
    models express per-row work in the same units, so one node
    executing ``speed`` units takes exactly one simulated second when
    it is alone on the CPU.

    ``quantum`` is the OS scheduler time slice.  The 10 ms default
    matches classic Linux/Solaris round-robin slices and is what makes
    ``gethrtime`` readings of sub-quantum iterations noisy (paper
    Section 4.2 / Figure 7).
    """

    speed: float = 1.0e8
    quantum: float = 0.010
    memory_bytes: int = 512 * 1024 * 1024

    def __post_init__(self) -> None:
        # here and in the specs below every bound is written `not x > 0`
        # / `not x >= lo`: NaN fails every comparison, so it is rejected
        # instead of passing through
        if not self.speed > 0:
            raise ConfigError(f"node speed must be positive, got {self.speed}")
        if not self.quantum > 0:
            raise ConfigError(f"quantum must be positive, got {self.quantum}")


@dataclass(frozen=True)
class NetworkSpec:
    """Switched-Ethernet model parameters.

    * ``latency`` — one-way wire+switch latency per message (s).
    * ``bandwidth`` — link bandwidth in bytes/s (100 Mb/s => 12.5e6).
    * ``cpu_per_byte`` — CPU work units consumed per payload byte on
      each side of a transfer (memory copies, checksums, TCP stack).
      This term is why communication "requires *some* use of the CPU"
      (paper Section 4.3) and why relative-power distributions are
      suboptimal.
    * ``cpu_per_msg`` — fixed CPU work units per message on each side.
    * ``eager_threshold`` — messages at or below this many bytes
      complete at the sender as soon as they are injected; larger
      messages use a rendezvous and block the sender until the receiver
      has posted a matching receive.
    """

    latency: float = 75e-6
    bandwidth: float = 12.5e6
    cpu_per_byte: float = 0.40
    cpu_per_msg: float = 3000.0
    eager_threshold: int = 16 * 1024
    #: "blocking" — a waiting receiver sleeps and is woken on delivery;
    #: "polling" — the receiver busy-waits (2003-era MPICH ch_p4
    #: style), consuming CPU while waiting and noticing messages only
    #: when it holds the CPU.  Polling is what makes a loaded node
    #: poison fine-grained communication (paper Section 5.3).
    recv_mode: str = "blocking"

    def __post_init__(self) -> None:
        if not self.latency >= 0:
            raise ConfigError(f"latency must be non-negative, got {self.latency}")
        if not self.bandwidth > 0:
            raise ConfigError(f"bandwidth must be positive, got {self.bandwidth}")
        for name in ("cpu_per_byte", "cpu_per_msg", "eager_threshold"):
            if not getattr(self, name) >= 0:
                raise ConfigError(
                    f"{name} must be non-negative, got {getattr(self, name)}")
        if self.recv_mode not in ("blocking", "polling"):
            raise ConfigError(f"unknown recv_mode {self.recv_mode!r}")


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous (by default) cluster of ``n_nodes`` nodes."""

    n_nodes: int
    node: NodeSpec = field(default_factory=NodeSpec)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    seed: int = 0
    name: str = "cluster"
    #: communication sanitizer (``repro.analysis``): True/False force it
    #: on/off; None (the default) defers to the ``DYNMPI_SANITIZE``
    #: environment variable.  Keep it off for benchmarks — the hooks
    #: add per-message bookkeeping.
    sanitize: bool | None = None
    #: dynscope observability (``repro.obs``): True/False force the
    #: trace recorder on/off; None (the default) defers to the
    #: ``DYNMPI_OBS`` environment variable.  Recording never adds
    #: simulated cost, but the Python-side bookkeeping is real — keep
    #: it off for wall-clock benchmarks.
    observe: bool | None = None
    #: schedule perturbation (``repro.analysis.perturb``): an integer seed
    #: arms the kernel's :class:`~repro.simcluster.kernel.Perturb`
    #: tie-break flipping; None (the default) defers to the
    #: ``DYNMPI_PERTURB`` environment variable.  A schedule-clean run
    #: exports byte-identical traces under every seed.
    perturb: int | None = None

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ConfigError(f"need at least one node, got {self.n_nodes}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.sanitize not in (None, True, False):
            raise ConfigError(f"sanitize must be True/False/None, got {self.sanitize!r}")
        if self.observe not in (None, True, False):
            raise ConfigError(f"observe must be True/False/None, got {self.observe!r}")
        if self.perturb is not None and (
            isinstance(self.perturb, bool) or not isinstance(self.perturb, int)
        ):
            raise ConfigError(
                f"perturb must be an integer seed or None, got {self.perturb!r}"
            )

    def with_nodes(self, n_nodes: int) -> "ClusterSpec":
        return replace(self, n_nodes=n_nodes)

@dataclass(frozen=True)
class ResilienceSpec:
    """In-memory neighbor checkpointing + crash recovery knobs
    (``repro.resilience``, see docs/RESILIENCE.md).

    Attach to :class:`RuntimeSpec` via ``resilience=ResilienceSpec()``;
    the default ``RuntimeSpec.resilience = None`` keeps every
    resilience code path disabled (zero overhead).
    """

    #: phase cycles between buddy checkpoints.  1 (the default) makes
    #: recovery exact: the checkpoint a buddy replays is precisely the
    #: crashed rank's state at the failure cycle's boundary.  Larger
    #: intervals cut checkpoint traffic but replay rows up to
    #: ``checkpoint_interval - 1`` cycles stale (only safe for
    #: applications that re-converge, e.g. iterative solvers).
    checkpoint_interval: int = 1
    #: number of successive ring buddies that hold a replica of each
    #: rank's checkpoint; recovery survives up to ``replication``
    #: simultaneous failures of adjacent ranks.
    replication: int = 1
    #: seconds without a ``dmpi_ps`` heartbeat before a node is
    #: suspected dead; 0 (the default) resolves to
    #: ``3 * RuntimeSpec.daemon_interval``.
    heartbeat_timeout: float = 0.0

    def __post_init__(self) -> None:
        if not self.checkpoint_interval >= 1:
            raise ConfigError("checkpoint_interval must be >= 1")
        if not self.replication >= 1:
            raise ConfigError("replication must be >= 1")
        if not self.heartbeat_timeout >= 0:
            raise ConfigError(
                f"heartbeat_timeout must be >= 0, got {self.heartbeat_timeout}")

    def resolve_timeout(self, daemon_interval: float) -> float:
        return self.heartbeat_timeout or 3.0 * daemon_interval


@dataclass(frozen=True)
class RuntimeSpec:
    """Dyn-MPI runtime tunables (paper defaults)."""

    #: phase cycles of measurement after a load change (paper: 5)
    grace_period: int = 5
    #: phase cycles of monitoring after a redistribution (paper: 10)
    post_redist_period: int = 10
    #: dmpi_ps daemon sampling interval in seconds (paper: 1 s)
    daemon_interval: float = 1.0
    #: whether node removal is considered at all
    allow_removal: bool = True
    #: "physical" (paper default) or "logical" dropping
    drop_mode: str = "physical"
    #: consider re-adding removed nodes when their load clears
    allow_rejoin: bool = False
    #: safety margin: predicted unloaded-config time must beat the
    #: measured time by this factor before nodes are dropped (tiny
    #: values force dropping, huge values forbid it — used by the
    #: Figure 6 experiment to measure both branches)
    drop_margin: float = 1.0
    #: cap on the number of redistributions (0 = unlimited); the
    #: Figure 5 "Redist Once" configuration uses 1
    max_redistributions: int = 0
    #: checkpointing + crash recovery (``repro.resilience``); None
    #: disables every resilience code path
    resilience: Optional[ResilienceSpec] = None

    def __post_init__(self) -> None:
        if not self.grace_period >= 1:
            raise ConfigError("grace_period must be >= 1")
        if not self.post_redist_period >= 1:
            raise ConfigError("post_redist_period must be >= 1")
        if not self.daemon_interval > 0:
            raise ConfigError(
                f"daemon_interval must be positive, got {self.daemon_interval}")
        if self.drop_mode not in ("physical", "logical"):
            raise ConfigError(f"unknown drop_mode {self.drop_mode!r}")
        if not self.drop_margin > 0:
            raise ConfigError(f"drop_margin must be positive, got {self.drop_margin}")


def pentium_cluster(n_nodes: int, *, seed: int = 0) -> ClusterSpec:
    """The paper's primary testbed: 550 MHz P-III Xeon, 100 Mb/s switch.

    Speed is calibrated (see ``repro.experiments.calibrate``) so the
    4-node dedicated CG run lands near the paper's 37.5 s.
    """

    return ClusterSpec(
        n_nodes=n_nodes,
        node=NodeSpec(speed=1.10e8, quantum=0.010),
        network=NetworkSpec(latency=75e-6, bandwidth=12.5e6),
        seed=seed,
        name="pentium",
    )


def ultrasparc_cluster(n_nodes: int, *, seed: int = 0) -> ClusterSpec:
    """The Section 5.3 testbed: 360 MHz Ultra-Sparc 5 + 100 Mb/s.

    Its MPI busy-polls for messages (ch_p4 style), so message handling
    on a loaded node waits for the CPU — the effect behind the
    node-removal results.
    """

    return ClusterSpec(
        n_nodes=n_nodes,
        node=NodeSpec(speed=0.30e8, quantum=0.010),
        network=NetworkSpec(latency=75e-6, bandwidth=12.5e6, recv_mode="polling"),
        seed=seed,
        name="ultrasparc",
    )
