"""Seeded message race: master/worker ANY_SOURCE.

Both workers send to rank 0 while the master sleeps, so both envelopes
sit in the mailbox when the wildcard receive finally looks — which
source wins the match is the kernel's tie-break, not the program.
The perturbation harness (``DYNMPI_PERTURB``) must reproduce the race
dynamically: the ``mpi.recv`` trace span records the matched source,
so flipping the tie-break is a byte-level diff of the export.
``run_traced()`` is the perturbation target.
"""


def farm_program(ep):
    if ep.rank == 0:
        from repro.simcluster import Sleep

        # let both workers' sends arrive before the first receive
        yield Sleep(0.05)
        total = 0.0
        for _ in range(2):
            part, st = yield from ep.recv()  # ANY_SOURCE: the race point
            total += part
        return total
    yield from ep.send(0, tag=1, payload=float(ep.rank))
    return None


def run_traced() -> str:
    from repro.config import ClusterSpec, NodeSpec
    from repro.mpi import run_spmd
    from repro.obs.export import jsonl_text
    from repro.simcluster import Cluster

    cluster = Cluster(ClusterSpec(
        n_nodes=3, node=NodeSpec(speed=1e8), observe=True,
    ))
    run_spmd(cluster, farm_program)
    return jsonl_text(cluster.obs)
