"""Conjugate Gradient on an unstructured sparse system (paper's NAS CG
stand-in, Sections 5.1).

The matrix is a deterministic diagonally dominant symmetric sparse
matrix held as a Dyn-MPI sparse array (charged as the paper's vector
of lists); the solver follows the classic CG recurrence.  Each phase cycle = one CG iteration:

* ring-allgather of the search direction ``p`` (every rank needs the
  full vector for its SpMV rows),
* ``q = A p`` over the owned rows (the dominant compute),
* two scalar global reductions (``p.q`` and ``r.r``) — which use the
  runtime's send-in/send-out global reduce, so physically removed
  nodes still receive the values that keep their state consistent.

Between redistributions the owned rows are traversed through a CSR
snapshot (``SparseMatrix.csr_rows``) — exactly the custom-format
escape hatch the paper describes at the end of Section 4.4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

import numpy as np

from ..core import AccessMode, RingAllgather, ScalarAllreduce
from .base import require_at_least
from .kernels import CG_WORK_PER_NNZ, CG_WORK_PER_ROW, cg_block_csr

__all__ = ["CGConfig", "cg_program"]

#: rows generated and installed per step of the matrix build: bounds
#: the build's temporaries (band mask, CSR arrays) to tens of KiB
#: however many rows a rank holds
_BUILD_ROWS = 256


@dataclass(frozen=True)
class CGConfig:
    n: int = 14000
    iters: int = 75
    nnz_target: int = 12
    materialized: bool = True  # the sparse format always stores data
    exact_math: bool = True    # do the real vector math (small n tests)
    seed: int = 1234

    def __post_init__(self) -> None:
        require_at_least(self, 1, "n", "nnz_target")
        require_at_least(self, 0, "iters")


def cg_program(ctx, cfg: CGConfig) -> Generator:
    n = cfg.n
    A = ctx.register_sparse("A", (n, n))
    x = ctx.register_dense("x", (n,), materialized=cfg.exact_math)
    r = ctx.register_dense("r", (n,), materialized=cfg.exact_math)
    p = ctx.register_dense("p", (n,), materialized=cfg.exact_math)
    q = ctx.register_dense("q", (n,), materialized=cfg.exact_math)
    ctx.init_phase(1, n, RingAllgather(total_nbytes=n * 8))
    ctx.add_array_access(1, "A", AccessMode.READ)
    for name in ("x", "r", "p", "q"):
        ctx.add_array_access(1, name, AccessMode.READWRITE)
    # the two dot-product reductions per iteration
    ctx.init_phase(2, n, ScalarAllreduce(count=2))
    ctx.add_array_access(2, "r", AccessMode.READ)
    ctx.commit()

    # build the owned matrix rows (deterministic, so any rank can
    # generate any row without communication)
    for lo, hi in A.held_intervals().spans:
        for a in range(lo, hi + 1, _BUILD_ROWS):
            b = min(a + _BUILD_ROWS - 1, hi)
            A.set_rows_csr(range(a, b + 1), *cg_block_csr(
                n, a, b, nnz_target=cfg.nnz_target, seed=cfg.seed))

    # b = 1: x0 = 0, r0 = b, p0 = r0
    if cfg.exact_math:
        for g in x.held_rows():
            x.row(g)[:] = 0.0
            r.row(g)[:] = 1.0
            p.row(g)[:] = 1.0
    s, e = ctx.my_bounds()
    rho = float(n)  # r.r with r = ones

    csr_cache: dict = {"key": None}

    def get_csr(s: int, e: int):
        key = (A.csr_version, s, e)
        if csr_cache["key"] != key:
            indptr, cols, vals = A.csr_rows(list(range(s, e + 1)))
            csr_cache.update(key=key, indptr=indptr, cols=cols, vals=vals)
        return csr_cache["indptr"], csr_cache["cols"], csr_cache["vals"]

    work_cache: dict = {"key": None}

    def work_of(s: int, e: int) -> np.ndarray:
        key = (A.csr_version, s, e)
        if work_cache["key"] != key:
            nnz = A.rows_nnz(s, e).astype(float)
            work_cache.update(key=key, work=nnz * CG_WORK_PER_NNZ + CG_WORK_PER_ROW)
        return work_cache["work"]

    full_p: Optional[np.ndarray] = None

    residual = float("nan")
    for _t in range(cfg.iters):
        yield from ctx.begin_cycle()
        participating = ctx.participating()
        s, e = ctx.my_bounds()
        if participating:
            # 1. allgather p
            if e >= s:
                block = (
                    p.block(s, e).ravel()
                    if cfg.exact_math else np.zeros(e - s + 1)
                )
            else:
                block = np.zeros(0)
            gathered = yield from ctx.allgather_active((s, e, block))
            if cfg.exact_math:
                full_p = np.zeros(n)
                for lo, hi, blk in gathered:
                    if hi >= lo:
                        full_p[lo:hi + 1] = blk

            # 2. q = A p over owned rows
            if e >= s:
                def exec_rows(lo: int, hi: int) -> None:
                    if not cfg.exact_math:
                        return
                    indptr, cols, vals = get_csr(*ctx.my_bounds())
                    base = ctx.my_bounds()[0]
                    ptr = indptr[lo - base: hi - base + 2].tolist()
                    q.hold(range(lo, hi + 1))
                    # one dot product per row: its summation order is
                    # the result, so the rows are not fused
                    q.set_block(lo, [vals[a:b] @ full_p[cols[a:b]]
                                     for a, b in zip(ptr, ptr[1:])])

                yield from ctx.compute(1, work_of, exec_rows)

        # 3. the two global reductions + vector updates.  Every rank —
        # removed ones included — enters global_reduce: a removed rank
        # contributes nothing but still *receives* the send-out values
        # (4.4), keeping its alpha/beta/rho recurrence consistent for
        # when it rejoins.
        # The vector updates run on blocks; the local sums stay Python
        # ``sum`` over the elements, left to right, because that order
        # (and the scalar ``** 2``) is the result.
        local = participating and cfg.exact_math and e >= s
        if local:
            pv, qv = p.block(s, e).ravel(), q.block(s, e).ravel()
            pq_local = float(sum(pv * qv))
        else:
            pq_local = 0.0
        pq = yield from ctx.global_reduce(pq_local)
        alpha = rho / pq if (cfg.exact_math and pq != 0.0) else 0.0
        if local:
            x.set_block(s, x.block(s, e).ravel() + alpha * pv)
            rv = r.block(s, e).ravel() - alpha * qv
            r.set_block(s, rv)
            rr_local = float(sum(v ** 2 for v in rv))
        else:
            rr_local = 0.0
        rr = yield from ctx.global_reduce(rr_local)
        if cfg.exact_math:
            beta = rr / rho if rho > 0 else 0.0
            if local:
                p.set_block(s, rv + beta * pv)
            rho = rr
            residual = float(np.sqrt(rr))
        yield from ctx.end_cycle()

    return {
        "bounds": ctx.my_bounds(),
        "cycles": len(ctx.cycle_times),
        "residual": residual,
        "x_local": (
            {g: float(x.row(g)[0]) for g in range(*_inc(ctx.my_bounds()))}
            if cfg.exact_math and ctx.participating() else {}
        ),
    }


def _inc(bounds: tuple[int, int]) -> tuple[int, int]:
    s, e = bounds
    return (s, e + 1) if e >= s else (0, 0)
