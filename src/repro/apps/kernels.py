"""Numerical kernels and calibrated work-cost models for the four
evaluated applications.

Work units are "effective flops" on the reference node: a node with
``speed`` work units/second executes ``speed`` of them per second.
The constants below are calibrated (see EXPERIMENTS.md) so that, on
the paper's Pentium cluster spec, the 4-node dedicated CG run lands
near the paper's 37.5 s; the other apps use consistent per-flop costs.

* Jacobi: 5-point stencil, ~5 flops + loads per cell -> ~9 work/cell.
* Red/Black SOR: each half-sweep updates half the cells with ~7 flops
  each -> ~3.5 work/cell per phase.
* CG: one phase cycle stands for one NAS-CG *outer* iteration (~25
  inner solves of SpMV + vector ops folded into the per-row constant,
  which is what puts the 4-node dedicated run near the paper's
  37.5 s).
* Particle: per-cell base cost plus per-particle move/collide cost.

The distributed programs run the real math one ``compute()`` range at a
time (:func:`jacobi_block_update`, :func:`sor_block_halfsweep`,
:func:`particle_block_flows`, :func:`cg_block_csr`).  Their row forms
(:func:`jacobi_row_update`, :func:`sor_row_halfsweep`,
:func:`particle_row_flows`, :func:`make_cg_rows`) are the sequential
oracle's kernels (``apps/reference.py``): the same elementwise IEEE
operations in the same order, the particle forms' shed fractions from
one keyed hash, so the two agree bit for bit (``tests/test_kernels.py``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..simcluster.rng import mix64, unit_doubles

__all__ = [
    "JACOBI_WORK_PER_CELL",
    "SOR_WORK_PER_CELL_PER_PHASE",
    "CG_WORK_PER_NNZ",
    "CG_WORK_PER_ROW",
    "PARTICLE_WORK_PER_CELL",
    "PARTICLE_WORK_PER_PARTICLE",
    "jacobi_row_update",
    "jacobi_block_update",
    "sor_row_halfsweep",
    "sor_block_halfsweep",
    "make_cg_rows",
    "cg_block_csr",
    "particle_row_flows",
    "particle_block_flows",
]

JACOBI_WORK_PER_CELL = 9.0
SOR_WORK_PER_CELL_PER_PHASE = 3.5
CG_WORK_PER_NNZ = 1250.0
CG_WORK_PER_ROW = 1000.0
PARTICLE_WORK_PER_CELL = 6.0
PARTICLE_WORK_PER_PARTICLE = 40.0
_GAMMA = np.uint64(0x9E3779B97F4A7C15)  # SplitMix64's state increment


def jacobi_row_update(src_row, s_up, s_down) -> np.ndarray:
    """One Jacobi row: the 5-point average with Dirichlet boundaries.

    ``src_row`` is the row itself; ``s_up`` / ``s_down`` are the rows
    above/below (None at the grid edge).  Returns the updated row.
    """
    acc = src_row.copy()
    cnt = np.ones_like(src_row)
    acc[1:] += src_row[:-1]
    cnt[1:] += 1
    acc[:-1] += src_row[1:]
    cnt[:-1] += 1
    if s_up is not None:
        acc += s_up
        cnt += 1
    if s_down is not None:
        acc += s_down
        cnt += 1
    return acc / cnt


def sor_row_halfsweep(row, r_up, r_down, g: int, color: int, omega: float = 1.5) -> None:
    """In-place red/black Gauss-Seidel half-sweep of one row.

    Updates the cells of ``row`` whose checkerboard color matches
    ``color`` (0=red, 1=black) using the standard SOR relaxation with
    the current values of the other color.
    """
    n = row.shape[0]
    cols = np.arange(n)
    mask = ((cols + g) % 2) == color
    neigh = np.zeros(n)
    cnt = np.zeros(n)
    neigh[1:] += row[:-1]
    cnt[1:] += 1
    neigh[:-1] += row[1:]
    cnt[:-1] += 1
    if r_up is not None:
        neigh += r_up
        cnt += 1
    if r_down is not None:
        neigh += r_down
        cnt += 1
    with np.errstate(invalid="ignore", divide="ignore"):
        gs = np.where(cnt > 0, neigh / np.maximum(cnt, 1), row)
    row[mask] = (1 - omega) * row[mask] + omega * gs[mask]


def _own_rows(halo: np.ndarray, top: bool, bottom: bool) -> np.ndarray:
    """Rows ``lo..hi`` of a ``lo-1..hi+1`` gather clipped to the grid."""
    return halo[0 if top else 1: halo.shape[0] - (0 if bottom else 1)]


def _flat(a: np.ndarray) -> np.ndarray:
    """``a``'s elements as a 1-d view; a block that is not C-contiguous
    raises, since ``reshape`` would hand back a copy and the adds made
    through it would be lost."""
    if not a.flags.c_contiguous:
        raise ValueError("block kernels need C-contiguous rows")
    return a.reshape(-1)


def _add_neighbors(acc: np.ndarray, cur: np.ndarray, halo: np.ndarray,
                   top: bool) -> None:
    """``acc += left, right, up, down`` — the row kernels' order — for
    every cell of the block ``cur`` that has that neighbour.  ``halo``
    is ``cur`` with one extra row above unless ``top`` and one below
    unless it ends at the grid's last row.

    Each horizontal add is one contiguous 1-d add over the flattened
    block (on a 64 x 1024 block, 20 µs against 68 µs for the strided
    2-d slice add, one Xeon core); it also adds across row ends, into
    column 0 (left) and column n-1 (right), which get their saved
    values back.  Every cell sees the same IEEE
    adds in the same order as in the row kernel."""
    a, c = _flat(acc), _flat(cur)
    edge = acc[:, 0].copy()
    a[1:] += c[:-1]
    acc[:, 0] = edge
    edge = acc[:, -1].copy()
    a[:-1] += c[1:]
    acc[:, -1] = edge
    k = cur.shape[0]
    if top:
        acc[1:] += cur[:-1]
    else:
        acc += halo[:k]
    down = halo[(1 if top else 2):]
    acc[:down.shape[0]] += down


def _neighbor_counts(k: int, n: int, top: bool, bottom: bool) -> np.ndarray:
    """Number of in-grid 4-neighbours of each cell of a k x n block.
    The count is a row vector (horizontal) minus a column vector (the
    missing vertical neighbours), so a block that touches neither grid
    edge — most blocks — gets just the row vector to broadcast."""
    cnt = np.full(n, 4.0)
    cnt[0] -= 1
    cnt[-1] -= 1
    if top or bottom:
        missing = np.zeros((k, 1))
        if top:
            missing[0] += 1
        if bottom:
            missing[-1] += 1
        cnt = cnt - missing
    return cnt


def jacobi_block_update(halo: np.ndarray, top: bool, bottom: bool,
                        out: np.ndarray | None = None) -> np.ndarray:
    """:func:`jacobi_row_update` for a whole block of rows ``lo..hi``.

    ``halo`` holds rows ``lo-1..hi+1`` clipped to the grid: ``top``
    says ``lo`` is the grid's first row (no row above it in ``halo``),
    ``bottom`` that ``hi`` is its last.  Writes the updated rows
    ``lo..hi``, bitwise equal to the row kernel's, into ``out`` (a new
    array when None; it must not overlap ``halo``) and returns it.
    ``halo`` and ``out`` must be C-contiguous, else ``ValueError``.
    """
    cur = _own_rows(halo, top, bottom)
    if out is None:
        out = np.empty_like(cur, order="C")
    elif out.shape != cur.shape:
        raise ValueError(f"out has shape {out.shape}, the block {cur.shape}")
    out[...] = cur
    _add_neighbors(out, cur, halo, top)
    out /= 1.0 + _neighbor_counts(*cur.shape, top, bottom)
    return out


def sor_block_halfsweep(halo: np.ndarray, lo: int, color: int, omega: float,
                        top: bool, bottom: bool) -> np.ndarray:
    """:func:`sor_row_halfsweep` for a whole block of rows starting at
    global row ``lo`` (``halo`` / ``top`` / ``bottom`` as in
    :func:`jacobi_block_update`).  ``halo`` doubles as the snapshot
    that keeps in-rank sweep order from leaking updated same-color
    values.  Returns the rows with the cells of ``color`` relaxed,
    bitwise equal to the row kernel's.
    """
    cur = _own_rows(halo, top, bottom)
    k, n = cur.shape
    neigh = np.zeros((k, n))
    _add_neighbors(neigh, cur, halo, top)
    cnt = _neighbor_counts(k, n, top, bottom)
    gs = np.where(cnt > 0, neigh / np.maximum(cnt, 1), cur)
    mask = (np.arange(n) + np.arange(lo, lo + k)[:, None]) % 2 == color
    return np.where(mask, (1 - omega) * cur + omega * gs, cur)


#: band width of the CG matrix's off-diagonal couplings
_CG_SPAN = 16


def make_cg_rows(n: int, row: int, *, nnz_target: int = 12, seed: int = 1234):
    """Deterministically generate row ``row`` of a diagonally dominant
    **symmetric** banded random sparse matrix.

    Edge (i, i+d) exists iff d is among the hashed offsets of i, so row
    i's upward partners are {i+d : d in offsets(i)} and its downward
    partners are {i-d : d in offsets(i-d)} — both computable from the
    row index alone.  Any rank can therefore generate any row
    identically (no global build), which is also what lets the work
    model know per-row nnz cheaply.  Returns ``(cols, vals)`` with the
    diagonal included.
    """
    half = max(1, (nnz_target - 1) // 2)
    cols = {row}
    for d in _cg_offsets(row, half, seed):
        if row + d < n:
            cols.add(row + d)
    for d in range(1, _CG_SPAN + 1):
        i = row - d
        if i >= 0 and d in _cg_offsets(i, half, seed):
            cols.add(i)
    cols = sorted(cols)
    vals = []
    for c in cols:
        if c == row:
            vals.append(float(nnz_target + 4.0))  # dominance
        else:
            vals.append(_pair_val(row, c, seed))
    return np.asarray(cols, dtype=np.int64), np.asarray(vals, dtype=float)


@lru_cache(maxsize=4 * _CG_SPAN)  # a row also asks for its _CG_SPAN predecessors'
def _cg_offsets(row: int, count: int, seed: int) -> frozenset[int]:
    """Hashed upward edge offsets of ``row`` within the band."""
    return frozenset(
        1 + (((row * 2_654_435_761 + t * 40_503 + seed * 97) & 0xFFFFFFFF)
             % _CG_SPAN)
        for t in range(count)
    )


def _pair_val(i: int, j: int, seed: int) -> float:
    lo, hi = (i, j) if i < j else (j, i)
    h = (lo * 73_856_093 ^ hi * 19_349_663 ^ seed) & 0xFFFFFFFF
    return -0.5 * (h / 0xFFFFFFFF)  # negative off-diagonals, SPD-friendly


def cg_block_csr(n: int, lo: int, hi: int, *, nnz_target: int = 12, seed: int = 1234):
    """:func:`make_cg_rows` for the whole row span ``lo..hi`` as one CSR
    block ``(indptr, cols, vals)``: row ``g`` is
    ``cols/vals[indptr[g - lo]:indptr[g - lo + 1]]``, bitwise equal to
    the row generator's.

    The hashes run in int64 and only their low 32 bits are kept, which
    two's-complement wrap-around cannot change, so they agree with the
    row generator's unbounded Python integers for any ``n`` and ``seed``.
    """
    half = max(1, (nnz_target - 1) // 2)
    k = hi - lo + 1
    # has[i - first, d - 1]: row i hashes the upward offset d; rows up
    # to _CG_SPAN above the span reach down into it
    first = max(lo - _CG_SPAN, 0)
    src = np.arange(first, hi + 1, dtype=np.int64)
    h = (src[:, None] * 2_654_435_761 + np.arange(half) * 40_503
         + ((seed * 97) & 0xFFFFFFFF)) & 0xFFFFFFFF
    has = np.zeros((src.size, _CG_SPAN), dtype=bool)
    has[np.arange(src.size)[:, None], h % _CG_SPAN] = True
    i, d = np.nonzero(has)
    i += first
    d += 1
    j = i + d
    # band[g - lo, _CG_SPAN + c - g]: row g stores column c
    band = np.zeros((k, 2 * _CG_SPAN + 1), dtype=bool)
    band[:, _CG_SPAN] = True
    up = (i >= lo) & (j < n)
    band[i[up] - lo, _CG_SPAN + d[up]] = True
    down = (j >= lo) & (j <= hi)
    band[j[down] - lo, _CG_SPAN - d[down]] = True
    r, off = np.nonzero(band)  # row-major: columns ascend within a row
    indptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(band.sum(axis=1), out=indptr[1:])
    rows = r + lo
    cols = rows + off - _CG_SPAN
    pair = ((np.minimum(rows, cols) * 73_856_093)
            ^ (np.maximum(rows, cols) * 19_349_663)
            ^ (seed & 0xFFFFFFFF)) & 0xFFFFFFFF
    vals = -0.5 * (pair / 0xFFFFFFFF)
    vals[off == _CG_SPAN] = float(nnz_target + 4.0)
    return indptr, cols, vals


def particle_row_flows(counts: np.ndarray, g: int, step: int, seed: int):
    """One time step of the count-based particle transport for row ``g``.

    Returns ``(stay, up, down)``: the particles remaining in each cell
    (after intra-row drift) and the per-cell counts flowing to the row
    above/below.  Deterministic in ``(g, step, seed)`` — ownership of
    the row never changes the physics, which is what makes results
    invariant under redistribution.
    """
    n = counts.shape[0]
    frac = _particle_fractions(1, n, g, step, seed)[0]
    up = np.floor(counts * frac[:n])
    down = np.floor(counts * frac[n:])
    stay = counts - up - down
    # intra-row drift: circular shift of a third of the remainder
    drift = np.floor(stay / 3.0)
    stay = stay - drift + np.roll(drift, 1)
    return stay, up, down


@lru_cache(maxsize=64)  # every row of a step, on every rank, starts here
def _step_key(seed: int, step: int) -> np.uint64:
    return mix64(mix64(np.array([seed % 2**64], dtype=np.uint64)) ^ np.uint64(step))[0]


def _particle_fractions(k: int, n: int, lo: int, step: int, seed: int) -> np.ndarray:
    """The shed fractions of rows ``lo..lo+k-1`` as a ``(k, 2n)`` array:
    ``[:, :n]`` is each row's ``frac_up``, ``[:, n:]`` its ``frac_down``,
    uniform in ``[0.05, 0.15)``.  Cell ``j`` of row ``g`` is a pure hash
    of ``(seed mod 2**64, step, g, j)``, so ownership of a row cannot
    change the physics: draw ``2n * g + j`` of the SplitMix64 stream
    that ``(seed, step)`` seeds.
    """
    draws = np.arange(2 * n * lo, 2 * n * (lo + k), dtype=np.uint64).reshape(k, 2 * n)
    frac = unit_doubles(mix64(_step_key(seed, step) + draws * _GAMMA))
    frac *= 0.15 - 0.05
    frac += 0.05
    return frac


def particle_block_flows(counts: np.ndarray, lo: int, step: int, seed: int):
    """:func:`particle_row_flows` for the whole block of rows starting
    at global row ``lo`` (``counts`` may be a live ``rows(lo, hi)``
    view: it is only read).  Returns the ``(stay, up, down)`` slabs,
    bitwise equal to the row kernel's.
    """
    k, n = counts.shape
    frac = _particle_fractions(k, n, lo, step, seed)
    up = np.floor(counts * frac[:, :n])
    down = np.floor(counts * frac[:, n:])
    stay = counts - up - down
    # intra-row drift: circular shift of a third of the remainder
    drift = np.floor(stay / 3.0)
    stay -= drift
    stay[:, 1:] += drift[:, :-1]
    stay[:, 0] += drift[:, -1]
    return stay, up, down
