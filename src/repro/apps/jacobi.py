"""Jacobi iteration (paper Sections 5.1, 5.2).

Two n x n arrays; each phase cycle computes ``dst = 5-point-average
(src)`` over the partitioned rows, exchanges boundary rows with the
nearest neighbors, and swaps the arrays.  This is the paper's Figure 1
program written against the Dyn-MPI API of Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from ..core import AccessMode, NearestNeighbor
from .base import exchange_halo, require_at_least
from .kernels import JACOBI_WORK_PER_CELL, jacobi_block_update

__all__ = ["JacobiConfig", "jacobi_program", "initial_grid", "initial_rows"]


@dataclass(frozen=True)
class JacobiConfig:
    n: int = 2048
    iters: int = 250
    materialized: bool = False
    collect: bool = False  # return the assembled final grid (tests)
    seed: int = 7

    def __post_init__(self) -> None:
        require_at_least(self, 1, "n")
        require_at_least(self, 0, "iters")


def initial_grid(cfg: JacobiConfig) -> np.ndarray:
    """Deterministic initial condition (any rank can build any row)."""
    # seeded straight from the config, identical on every rank —
    # the initial condition is content-addressed, not a draw
    rng = np.random.default_rng(cfg.seed)
    return rng.random((cfg.n, cfg.n))


def initial_rows(cfg: JacobiConfig, lo: int, hi: int) -> np.ndarray:
    """Rows ``lo..hi`` (inclusive) of :func:`initial_grid`, bitwise,
    without building the rest: each double is one step of the stream,
    so the generator skips the ``lo * n`` that come before."""
    rng = np.random.default_rng(cfg.seed)
    rng.bit_generator.advance(lo * cfg.n)
    return rng.random((hi - lo + 1, cfg.n))


def jacobi_program(ctx, cfg: JacobiConfig) -> Generator:
    n = cfg.n
    A = ctx.register_dense("A", (n, n), materialized=cfg.materialized)
    B = ctx.register_dense("B", (n, n), materialized=cfg.materialized)
    ctx.init_phase(1, n, NearestNeighbor(row_nbytes=n * 8))
    for name in ("A", "B"):
        ctx.add_array_access(1, name, AccessMode.READWRITE, lo_off=-1, hi_off=1)
    ctx.commit()

    if cfg.materialized:
        for lo, hi in B.held_intervals().spans:
            B.set_block(lo, initial_rows(cfg, lo, hi))

    def work_of(s: int, e: int) -> np.ndarray:
        return np.full(e - s + 1, n * JACOBI_WORK_PER_CELL)

    src, dst = B, A
    for _t in range(cfg.iters):
        yield from ctx.begin_cycle()
        if ctx.participating():
            s, e = ctx.my_bounds()
            if e >= s:
                yield from exchange_halo(ctx, src, materialized=cfg.materialized)

                def exec_rows(lo: int, hi: int, src=src, dst=dst) -> None:
                    # views, not copies: the stencil reads its halo
                    # and writes its rows in place
                    halo = src.rows(max(lo - 1, 0), min(hi + 1, n - 1))
                    dst.hold(range(lo, hi + 1))
                    jacobi_block_update(halo, top=lo == 0, bottom=hi == n - 1,
                                        out=dst.rows(lo, hi))

                yield from ctx.compute(
                    1, work_of, exec_rows if cfg.materialized else None
                )
        yield from ctx.end_cycle()
        src, dst = dst, src

    result = {"bounds": ctx.my_bounds(), "cycles": len(ctx.cycle_times)}
    if cfg.materialized and ctx.participating():
        s, e = ctx.my_bounds()
        result["checksum"] = float(
            sum(src.row(g).sum() for g in range(s, e + 1))
        ) if e >= s else 0.0
    if cfg.collect and cfg.materialized:
        from .base import collect_rows

        if ctx.participating():
            result["grid"] = yield from collect_rows(ctx, src)
    return result
