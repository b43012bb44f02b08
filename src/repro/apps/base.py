"""Common scaffolding for the evaluated applications.

Every app module exposes a ``*Config`` dataclass, a ``*_program``
generator (the Dyn-MPI program itself), and a ``run_*`` driver that
wires a cluster, a load script, and a :class:`DynMPIJob` together and
returns an :class:`AppResult`.  The same program runs in three guises:

* dedicated — no competing processes (the paper's baseline),
* no-adapt — competing load but ``adaptive=False`` (plain MPI),
* Dyn-MPI — competing load with the runtime adapting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

import numpy as np

from ..config import RuntimeSpec
from ..core import DynMPIJob
from ..core.runtime import DynMPI
from ..errors import ConfigError
from ..simcluster import Cluster, LoadScript, to_s

__all__ = ["AppResult", "run_program", "require_at_least", "exchange_halo",
           "halo_start", "halo_finish", "collect_rows"]

HALO_UP_TAG = 101    # carries my first row to the left neighbor
HALO_DOWN_TAG = 102  # carries my last row to the right neighbor


def require_at_least(cfg, minimum, *fields: str) -> None:
    """The app configs' ``__post_init__`` check: every named field of
    ``cfg`` is ``>= minimum``, else :class:`ConfigError` naming it
    (NaN included: it fails ``>=``)."""
    for name in fields:
        value = getattr(cfg, name)
        if not value >= minimum:
            raise ConfigError(
                f"{type(cfg).__name__}.{name} must be >= {minimum}, got {value}")


@dataclass
class AppResult:
    """Everything an experiment needs from one application run."""

    wall_time: float
    events: list
    bounds: list
    cycle_times: list
    per_rank: list
    job: Any

    @property
    def n_redistributions(self) -> int:
        return sum(1 for ev in self.events if ev.kind == "redistribute")

    @property
    def n_drops(self) -> int:
        return sum(1 for ev in self.events if ev.kind in ("drop", "logical_drop"))

    def mean_cycle_time(self, first: int = 0, last: Optional[int] = None) -> float:
        """Mean over ranks of per-rank mean cycle time in a window."""
        vals = []
        for ct in self.cycle_times:
            window = ct[first:last]
            if window:
                vals.append(float(np.mean(window)))
        return float(np.mean(vals)) if vals else float("nan")


def run_program(
    cluster: Cluster,
    program: Callable[..., Generator],
    cfg,
    *,
    spec: Optional[RuntimeSpec] = None,
    adaptive: bool = True,
    load_script: Optional[LoadScript] = None,
) -> AppResult:
    """Launch ``program(ctx, cfg)`` on ``cluster`` and collect results."""
    if load_script is not None:
        cluster.install_load_script(load_script)
    job = DynMPIJob(cluster, spec, adaptive=adaptive)
    per_rank = job.launch(program, args=(cfg,))
    return AppResult(
        wall_time=to_s(cluster.sim.now),
        events=list(job.events),
        bounds=[ctx.my_bounds() for ctx in job.contexts],
        cycle_times=[list(ctx.cycle_times) for ctx in job.contexts],
        per_rank=per_rank,
        job=job,
    )


def halo_start(ctx: DynMPI, arr, *, materialized: bool) -> Generator:
    """Post the boundary-row sends of a halo exchange (non-blocking);
    returns the send requests for :func:`halo_finish`."""
    s, e = ctx.my_bounds()
    if e < s:
        return []
    left, right = ctx.nn_neighbors()
    nbytes = arr.row_nbytes
    reqs = []
    if left is not None:
        payload = arr.row(s).copy() if materialized else None
        reqs.append((yield from ctx.ep.isend(
            ctx.active_group.world(left), HALO_UP_TAG, payload, nbytes=nbytes)))
    if right is not None:
        payload = arr.row(e).copy() if materialized else None
        reqs.append((yield from ctx.ep.isend(
            ctx.active_group.world(right), HALO_DOWN_TAG, payload, nbytes=nbytes)))
    return reqs


def halo_finish(ctx: DynMPI, arr, reqs: list, *, materialized: bool) -> Generator:
    """Receive the ghost rows of a halo exchange started with
    :func:`halo_start` (the blocking/polling part)."""
    s, e = ctx.my_bounds()
    if e < s:
        return
    left, right = ctx.nn_neighbors()
    if left is not None:
        data, _ = yield from ctx.recv_rel(left, HALO_DOWN_TAG)
        arr.hold([s - 1])
        if materialized:
            arr.set_row(s - 1, data)
    if right is not None:
        data, _ = yield from ctx.recv_rel(right, HALO_UP_TAG)
        arr.hold([e + 1])
        if materialized:
            arr.set_row(e + 1, data)
    for req in reqs:
        yield from req.wait()


def exchange_halo(ctx: DynMPI, arr, *, materialized: bool) -> Generator:
    """Nearest-neighbor ghost-row exchange for a block distribution:
    my first owned row goes to the left neighbor, my last to the right,
    and I install their counterparts as rows ``s-1`` / ``e+1``."""
    reqs = yield from halo_start(ctx, arr, materialized=materialized)
    yield from halo_finish(ctx, arr, reqs, materialized=materialized)


def collect_rows(ctx: DynMPI, arr) -> Generator:
    """Assemble the full (materialized) array on every active rank —
    a test/verification helper, not part of the application model.

    Returns one read-only array shared by the job's active ranks (see
    :meth:`DynMPI.assemble_shared`): compare it, copy it to change it."""
    s, e = ctx.my_bounds()
    if e >= s:
        rows = list(range(s, e + 1))
        block = arr.block(s, e)
    else:
        rows, block = [], np.zeros((0, arr.row_elems))
    gathered = yield from ctx.allgather_active((rows, block))

    def assemble(parts: list) -> np.ndarray:
        full = np.zeros((arr.n_rows, arr.row_elems))
        for rws, blk in parts:
            if len(rws):
                full[np.asarray(rws, dtype=int)] = blk
        return full

    return ctx.assemble_shared(arr.name, gathered, assemble)
