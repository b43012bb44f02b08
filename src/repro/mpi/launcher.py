"""SPMD launcher — the simulated ``mpirun``, the one place ranks start.

``run_spmd(cluster, program, ...)`` spawns one process per rank (a
generator produced by ``program(endpoint, *args)``) on its node —
which makes it the node's application process, the target of a
``FailureScript`` ``kill`` / ``inject`` and of ``dmpi_ps``'s count —
has the communicator watch it (a dead rank's blocked peers get
:class:`~repro.errors.RankFailedError`), runs the simulation until
every rank finishes, and returns the per-rank results.
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
    args: tuple = (),
    comm: Optional[SimComm] = None,
    name: str = "rank",
    tolerate: Optional[Callable[[int], bool]] = None,
    advisory_tags: tuple = (),
) -> list[Any]:
    """Run ``program(endpoint, *args)`` as one process per rank of
    ``comm`` (default: a fresh one rank per node).

    Returns the list of per-rank return values.  A rank that dies on a
    node that recorded a fault, or whose rank ``tolerate``
    accepts, is an expected death; any other rank error is raised, and
    a hang is a :class:`~repro.errors.DeadlockError`.
    ``advisory_tags`` go to the sanitizer's final check.
    """
    if comm is None:
        comm = make_comm(cluster)
    procs = []
    for rank in range(comm.size):
        gen = program(comm.endpoint(rank), *args)
        if not hasattr(gen, "send"):
            raise MPIError(
                f"program must be a generator function (rank {rank} produced {type(gen)!r})"
            )
        proc = cluster.sim.spawn(gen, name=f"{name}{rank}",
                                 node=cluster.nodes[comm.node_of(rank)])
        comm.watch_rank(rank, proc)
        procs.append(proc)

    def expected_death(proc) -> bool:
        return proc.node.failed or (tolerate is not None and tolerate(procs.index(proc)))

    cluster.sim.run_all(procs, tolerate=expected_death)
    if cluster.sanitizer is not None:
        cluster.sanitizer.finalize(advisory_tags=advisory_tags)
    return [p.result for p in procs]
