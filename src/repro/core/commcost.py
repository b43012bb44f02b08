"""Communication cost model, fitted by micro-benchmarks (Section 4.3).

The paper determines effective distributions "by executing
micro-benchmarks" because communication consumes CPU that a naive
relative-power split ignores.  We reproduce the methodology: a
:class:`CommCostModel` is *measured* by running ping-pong and
CPU-accounting experiments on a scratch 2-node simulated cluster with
the same node/network specs as the target cluster, then least-squares
fitting

* per-message and per-byte **CPU seconds** (from /PROC-exact process
  CPU time), and
* per-message latency and per-byte **wire seconds** (from wallclock
  minus CPU time).

``from_spec`` provides the oracle model for tests (the fit should land
close to it — that closeness is itself tested).

:class:`PhasePattern` instances translate a candidate distribution
into per-node per-cycle communication cost under a pattern
(nearest-neighbor halo exchange, ring allgather, scalar allreduce).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..config import ClusterSpec, NetworkSpec
from ..errors import ConfigError
from ..simcluster import Cluster

__all__ = [
    "CommCostModel",
    "measure_comm_model",
    "PhasePattern",
    "NearestNeighbor",
    "RingAllgather",
    "ScalarAllreduce",
    "NoComm",
]


@dataclass(frozen=True)
class CommCostModel:
    """Per-endpoint message costs.

    * ``cpu_msg_s`` / ``cpu_byte_s`` — CPU seconds spent per message /
      per payload byte on one endpoint, measured at *reference speed*
      ``ref_speed`` (work = seconds * ref_speed scales to other nodes).
    * ``wire_msg_s`` / ``wire_byte_s`` — non-CPU wire seconds.
    """

    cpu_msg_s: float
    cpu_byte_s: float
    wire_msg_s: float
    wire_byte_s: float
    ref_speed: float

    def __post_init__(self) -> None:
        for name in ("cpu_msg_s", "cpu_byte_s", "wire_msg_s", "wire_byte_s"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.ref_speed <= 0:
            raise ConfigError("ref_speed must be positive")

    # CPU **work units** one endpoint spends on a message of n bytes
    def cpu_work(self, nbytes: float, n_msgs: float = 1.0) -> float:
        return (n_msgs * self.cpu_msg_s + nbytes * self.cpu_byte_s) * self.ref_speed

    # wire seconds for a message of n bytes
    def wire_time(self, nbytes: float, n_msgs: float = 1.0) -> float:
        return n_msgs * self.wire_msg_s + nbytes * self.wire_byte_s

    @staticmethod
    def from_spec(network: NetworkSpec, node_speed: float) -> "CommCostModel":
        """The oracle model implied directly by the simulator specs."""
        return CommCostModel(
            cpu_msg_s=network.cpu_per_msg / node_speed,
            cpu_byte_s=network.cpu_per_byte / node_speed,
            wire_msg_s=network.latency,
            wire_byte_s=1.0 / network.bandwidth,
            ref_speed=node_speed,
        )


def measure_comm_model(
    spec: ClusterSpec,
    sizes: Sequence[int] = (1024, 4096, 16384, 65536, 262144),
    reps: int = 8,
) -> CommCostModel:
    """Fit a :class:`CommCostModel` by simulated micro-benchmarks.

    Runs ``reps`` ping-pongs (isend, recv, wait: the halo exchange's
    pattern) per message size on a 2-node scratch cluster from ``spec``;
    splits cost into CPU and wire components using exact process CPU
    time, and fits both affinely in the message size.
    """
    from ..mpi import run_spmd  # local import: avoid cycle at package load

    sizes = [int(s) for s in sizes]
    if len(sizes) < 2:
        raise ConfigError("need at least two sizes to fit the model")

    cpu_per_size = []
    wall_per_size = []
    for nbytes in sizes:
        scratch = Cluster(
            ClusterSpec(n_nodes=2, node=spec.node, network=spec.network, seed=spec.seed)
        )

        def program(ep, nbytes=nbytes):
            for _ in range(reps):
                if ep.rank == 0:
                    req = yield from ep.isend(1, tag=0, payload=None, nbytes=nbytes)
                    yield from ep.recv(1, tag=1)
                else:
                    yield from ep.recv(0, tag=0)
                    req = yield from ep.isend(0, tag=1, payload=None, nbytes=nbytes)
                yield from req.wait()

        run_spmd(scratch, program)
        rank0 = next(p for p in scratch.sim.processes if p.name == "rank0")
        # per one-way message: rank0 handled 2*reps messages
        cpu_per_size.append(rank0.cpu_time / (2 * reps))
        wall_per_size.append(scratch.sim.now / (2 * reps))

    sizes_arr = np.asarray(sizes, dtype=float)
    design = np.stack([np.ones_like(sizes_arr), sizes_arr], axis=1)
    cpu_msg, cpu_byte = np.linalg.lstsq(design, np.asarray(cpu_per_size), rcond=None)[0]
    wall_msg, wall_byte = np.linalg.lstsq(design, np.asarray(wall_per_size), rcond=None)[0]
    return CommCostModel(
        cpu_msg_s=max(0.0, float(cpu_msg)),
        cpu_byte_s=max(0.0, float(cpu_byte)),
        wire_msg_s=max(0.0, float(wall_msg - cpu_msg)),
        wire_byte_s=max(0.0, float(wall_byte - cpu_byte)),
        ref_speed=spec.node.speed,
    )


class PhasePattern:
    """Per-cycle communication volume of a phase, per node.

    Subclasses answer: for each relative rank of ``n`` participants,
    how many CPU work units and wire seconds does one phase cycle of
    communication cost?  ``row_counts[rel]`` are owned-row counts under
    the candidate distribution.
    """

    def comm_cost_all(
        self,
        n: int,
        row_counts: Sequence[int],
        model: CommCostModel,
    ) -> tuple[np.ndarray, np.ndarray]:  # pragma: no cover - interface
        """``(cpu, wire)`` arrays over all ``n`` relative ranks, the
        active set computed once (a per-rank method made balancing
        O(n^2) at large n)."""
        raise NotImplementedError

    def name(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class NearestNeighbor(PhasePattern):
    """Halo exchange with left/right neighbors: ``halo_rows`` extended
    rows of ``row_nbytes`` each way per cycle."""

    row_nbytes: int
    halo_rows: int = 1

    def comm_cost_all(self, n, row_counts, model):
        cpu = np.zeros(n)
        wire = np.zeros(n)
        # nodes holding no rows do not participate in the exchange
        active = [i for i, c in enumerate(row_counts) if c > 0]
        if len(active) < 2:
            return cpu, wire
        nbytes = self.halo_rows * self.row_nbytes
        # send + receive on each boundary: (work * 2) * neighbors
        one_side = model.cpu_work(nbytes, 1) * 2
        wire_one = model.wire_time(nbytes, 1)  # exchanges overlap; one hop exposed
        last = len(active) - 1
        for pos, rel in enumerate(active):
            cpu[rel] = one_side * 1 if pos in (0, last) else one_side * 2
            wire[rel] = wire_one
        return cpu, wire


@dataclass(frozen=True)
class RingAllgather(PhasePattern):
    """Each cycle, every node assembles the full vector (CG's ``p``):
    n-1 ring steps moving ~total_nbytes through each node."""

    total_nbytes: int

    def comm_cost_all(self, n, row_counts, model):
        cpu = np.zeros(n)
        wire = np.zeros(n)
        active = [i for i, c in enumerate(row_counts) if c > 0]
        na = len(active)
        if na < 2:
            return cpu, wire
        other_bytes = self.total_nbytes * (na - 1) / na
        # each node sends and receives (na-1) blocks totalling ~other_bytes
        cpu_v = 2 * model.cpu_work(other_bytes, na - 1)
        wire_v = model.wire_time(other_bytes, na - 1)
        for rel in active:
            cpu[rel] = cpu_v
            wire[rel] = wire_v
        return cpu, wire


@dataclass(frozen=True)
class ScalarAllreduce(PhasePattern):
    """``count`` scalar allreduces per cycle: ~2 log2 n small messages."""

    count: int = 1
    nbytes: int = 72

    def comm_cost_all(self, n, row_counts, model):
        cpu = np.zeros(n)
        wire = np.zeros(n)
        active = [i for i, c in enumerate(row_counts) if c > 0]
        na = len(active)
        if na < 2:
            return cpu, wire
        rounds = 2 * int(np.ceil(np.log2(na)))
        cpu_v = self.count * rounds * model.cpu_work(self.nbytes, 1)
        wire_v = self.count * rounds * model.wire_time(self.nbytes, 1)
        for rel in active:
            cpu[rel] = cpu_v
            wire[rel] = wire_v
        return cpu, wire


@dataclass(frozen=True)
class NoComm(PhasePattern):
    def comm_cost_all(self, n, row_counts, model):
        return np.zeros(n), np.zeros(n)
