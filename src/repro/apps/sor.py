"""Red/Black successive over-relaxation (paper Sections 5.1, 5.3).

One n x n grid; each phase cycle is a red half-sweep followed by a
black half-sweep, with a ghost-row exchange before each.  SOR's
computation/communication ratio is half Jacobi's (two exchanges per
cycle, half the arithmetic per sweep), which is why the paper uses it
for the node-removal study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from ..core import AccessMode, NearestNeighbor
from .base import halo_finish, halo_start, require_at_least
from .kernels import SOR_WORK_PER_CELL_PER_PHASE, sor_block_halfsweep

__all__ = ["SORConfig", "sor_program", "initial_grid"]


@dataclass(frozen=True)
class SORConfig:
    n: int = 1024
    iters: int = 250
    omega: float = 1.5
    materialized: bool = False
    collect: bool = False
    seed: int = 11

    def __post_init__(self) -> None:
        require_at_least(self, 1, "n")
        require_at_least(self, 0, "iters")


def initial_grid(cfg: SORConfig) -> np.ndarray:
    # seeded straight from the config, identical on every rank —
    # the initial condition is content-addressed, not a draw
    rng = np.random.default_rng(cfg.seed)
    return rng.random((cfg.n, cfg.n))


def sor_program(ctx, cfg: SORConfig) -> Generator:
    n = cfg.n
    G = ctx.register_dense("G", (n, n), materialized=cfg.materialized)
    ctx.init_phase(1, n, NearestNeighbor(row_nbytes=n * 8))  # red
    ctx.init_phase(2, n, NearestNeighbor(row_nbytes=n * 8))  # black
    for phase in (1, 2):
        ctx.add_array_access(phase, "G", AccessMode.READWRITE, lo_off=-1, hi_off=1)
    ctx.commit()

    if cfg.materialized:
        init = initial_grid(cfg)
        for g in G.held_rows():
            G.row(g)[:] = init[g]

    def work_of(s: int, e: int) -> np.ndarray:
        return np.full(e - s + 1, n * SOR_WORK_PER_CELL_PER_PHASE)

    for _t in range(cfg.iters):
        yield from ctx.begin_cycle()
        if ctx.participating():
            s, e = ctx.my_bounds()
            for phase, color in ((1, 0), (2, 1)):
                if e < s:
                    continue

                def exec_rows(lo: int, hi: int, color=color) -> None:
                    # the gather is also the snapshot: in-rank sweep
                    # order cannot leak updated same-color values
                    halo = G.block(max(lo - 1, 0), min(hi + 1, n - 1))
                    G.set_block(lo, sor_block_halfsweep(
                        halo, lo, color, cfg.omega,
                        top=lo == 0, bottom=hi == n - 1))

                exec_fn = exec_rows if cfg.materialized else None
                # overlap: interior rows need no ghosts, so they run
                # while the boundary rows travel; the boundary rows run
                # after the ghosts arrive (standard stencil overlap —
                # and the reason a loaded node's slow message handling
                # only hurts when the cycle is communication-bound)
                reqs = yield from halo_start(ctx, G, materialized=cfg.materialized)
                if e - s + 1 > 2:
                    yield from ctx.compute(phase, work_of, exec_fn,
                                           rows=(s + 1, e - 1))
                    yield from halo_finish(ctx, G, reqs,
                                           materialized=cfg.materialized)
                    yield from ctx.compute(phase, work_of, exec_fn, rows=(s, s))
                    yield from ctx.compute(phase, work_of, exec_fn, rows=(e, e))
                else:
                    yield from halo_finish(ctx, G, reqs,
                                           materialized=cfg.materialized)
                    yield from ctx.compute(phase, work_of, exec_fn)
        yield from ctx.end_cycle()

    result = {"bounds": ctx.my_bounds(), "cycles": len(ctx.cycle_times)}
    if cfg.materialized and ctx.participating():
        s, e = ctx.my_bounds()
        result["checksum"] = float(
            sum(G.row(g).sum() for g in range(s, e + 1))
        ) if e >= s else 0.0
    if cfg.collect and cfg.materialized:
        from .base import collect_rows

        if ctx.participating():
            result["grid"] = yield from collect_rows(ctx, G)
    return result
