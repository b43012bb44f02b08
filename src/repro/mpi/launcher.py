"""SPMD launcher — the simulated ``mpirun``.

``run_spmd(cluster, program, ...)`` spawns one process per rank (a
generator produced by ``program(endpoint, *args)``), places it on its
node, runs the simulation until every rank finishes, and returns the
per-rank results.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from ..errors import MPIError
from ..simcluster import Cluster
from .comm import SimComm

__all__ = ["run_spmd", "make_comm"]


def make_comm(cluster: Cluster, rank_to_node: Optional[Sequence[int]] = None) -> SimComm:
    """Build a world communicator; default is one rank per node."""
    if rank_to_node is None:
        rank_to_node = list(range(cluster.n_nodes))
    return SimComm(cluster, list(rank_to_node))


def run_spmd(
    cluster: Cluster,
    program: Callable[..., Any],
    *,
    rank_to_node: Optional[Sequence[int]] = None,
    args: tuple = (),
    name: str = "rank",
) -> list[Any]:
    """Run ``program(endpoint, *args)`` as one process per rank.

    Returns the list of per-rank return values.  Raises the first rank
    error encountered, or :class:`~repro.errors.DeadlockError` if the
    job hangs.
    """
    comm = make_comm(cluster, rank_to_node)
    procs = []
    for rank in range(comm.size):
        ep = comm.endpoint(rank)
        gen = program(ep, *args)
        if not hasattr(gen, "send"):
            raise MPIError(
                f"program must be a generator function (rank {rank} produced {type(gen)!r})"
            )
        node = cluster.nodes[comm.node_of(rank)]
        procs.append(cluster.sim.spawn(gen, name=f"{name}{rank}", node=node))
    cluster.sim.run_all(procs)
    if cluster.sanitizer is not None:
        cluster.sanitizer.finalize()
    return [p.result for p in procs]
