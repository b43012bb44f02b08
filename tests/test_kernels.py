"""Unit tests for the application kernels and their sequential
references (repro.apps.kernels / repro.apps.reference)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.kernels import (
    _particle_fractions,
    cg_block_csr,
    jacobi_block_update,
    jacobi_row_update,
    make_cg_rows,
    particle_block_flows,
    particle_row_flows,
    sor_block_halfsweep,
    sor_row_halfsweep,
)
from repro.apps.reference import (
    cg_matrix_dense,
    cg_reference,
    jacobi_reference,
    particle_reference,
    sor_reference,
)
from repro.dmem import ProjectedArray


# ----------------------------------------------------------------------
# Jacobi kernel
# ----------------------------------------------------------------------
def test_jacobi_row_interior_average():
    row = np.array([0.0, 4.0, 0.0])
    up = np.array([4.0, 0.0, 4.0])
    down = np.array([4.0, 0.0, 4.0])
    out = jacobi_row_update(row, up, down)
    # middle cell: (4 + 0+0 + 0+0)/5
    assert out[1] == pytest.approx(4.0 / 5)


def test_jacobi_row_boundary_counts_fewer_neighbors():
    row = np.array([2.0, 2.0])
    out = jacobi_row_update(row, None, None)
    # corner cells: (self + 1 horizontal)/2
    assert np.allclose(out, [2.0, 2.0])


def test_jacobi_constant_grid_is_fixed_point():
    grid = np.full((6, 6), 3.14)
    assert np.allclose(jacobi_reference(grid, 10), grid)


def test_jacobi_reference_smooths_peak():
    grid = np.zeros((7, 7))
    grid[3, 3] = 1.0
    out = jacobi_reference(grid, 1)
    assert out[3, 3] == pytest.approx(0.2)
    assert out[3, 4] == pytest.approx(0.2)
    assert out[0, 0] == 0.0


# ----------------------------------------------------------------------
# SOR kernel
# ----------------------------------------------------------------------
def test_sor_halfsweep_touches_only_one_color():
    row = np.arange(6, dtype=float)
    before = row.copy()
    up = np.ones(6)
    down = np.ones(6)
    sor_row_halfsweep(row, up, down, g=0, color=0)
    cols = np.arange(6)
    red = (cols % 2) == 0
    assert not np.allclose(row[red], before[red])
    assert np.array_equal(row[~red], before[~red])


def test_sor_constant_grid_is_fixed_point():
    grid = np.full((6, 6), 1.5)
    assert np.allclose(sor_reference(grid, 5), grid)


def test_sor_converges_toward_harmonic_interior():
    rng = np.random.default_rng(0)
    grid = rng.random((8, 8))
    out = sor_reference(grid, 200)
    # after many sweeps, the field is very smooth
    assert np.ptp(out) < np.ptp(grid) * 0.2


# ----------------------------------------------------------------------
# block kernels == the row kernels, bit for bit
# ----------------------------------------------------------------------
@st.composite
def grid_and_range(draw):
    """A random grid and a row range ``lo <= m <= hi`` inside it; small
    sizes so top, bottom, both and interior ranges all come up."""
    n_rows = draw(st.integers(1, 7))
    n = draw(st.integers(1, 6))
    lo = draw(st.integers(0, n_rows - 1))
    hi = draw(st.integers(lo, n_rows - 1))
    m = draw(st.integers(lo, hi))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.standard_normal((n_rows, n)) * 10.0, lo, m, hi


def _neighbors(grid, g):
    return (grid[g - 1] if g > 0 else None,
            grid[g + 1] if g < grid.shape[0] - 1 else None)


def _halo(grid, lo, hi):
    return grid[max(lo - 1, 0): min(hi + 1, grid.shape[0] - 1) + 1]


def _jacobi_block(grid, lo, hi):
    return jacobi_block_update(_halo(grid, lo, hi), top=lo == 0,
                               bottom=hi == grid.shape[0] - 1)


def _sor_block_sweep(grid, lo, hi, color):
    """What ``sor_program.exec_rows`` does to its array."""
    grid[lo: hi + 1] = sor_block_halfsweep(
        _halo(grid, lo, hi), lo, color, 1.5,
        top=lo == 0, bottom=hi == grid.shape[0] - 1)


@given(grid_and_range())
@settings(max_examples=200, deadline=None)
def test_jacobi_block_equals_stacked_row_updates(case):
    grid, lo, m, hi = case
    rows = np.stack([jacobi_row_update(grid[g], *_neighbors(grid, g))
                     for g in range(lo, hi + 1)])
    assert np.array_equal(_jacobi_block(grid, lo, hi), rows)
    if m < hi:  # any split of the range gives the same rows
        split = np.vstack([_jacobi_block(grid, lo, m),
                           _jacobi_block(grid, m + 1, hi)])
        assert np.array_equal(split, rows)


@given(grid_and_range(), st.sampled_from([0, 1]))
@settings(max_examples=200, deadline=None)
def test_sor_block_equals_row_halfsweeps(case, color):
    grid, lo, m, hi = case
    by_row = grid.copy()
    for g in range(lo, hi + 1):
        sor_row_halfsweep(by_row[g], *_neighbors(grid, g), g, color)
    whole = grid.copy()
    _sor_block_sweep(whole, lo, hi, color)
    assert np.array_equal(whole, by_row)
    # the second part gathers rows the first part already relaxed
    split = grid.copy()
    _sor_block_sweep(split, lo, m, color)
    if m < hi:
        _sor_block_sweep(split, m + 1, hi, color)
    assert np.array_equal(split, by_row)


@pytest.mark.parametrize("n_rows,n,lo,hi", [
    (6, 5, 2, 3), (6, 5, 0, 2), (6, 5, 3, 5), (6, 5, 0, 5),
    (6, 5, 2, 2), (1, 5, 0, 0), (6, 1, 2, 4), (6, 2, 0, 3), (6, 2, 4, 5),
], ids=["interior", "top", "bottom", "both", "k1", "k1-both",
        "n1", "n2-top", "n2-bottom"])
def test_jacobi_block_out_into_a_slab_view_equals_row_updates(n_rows, n, lo, hi):
    """What ``jacobi_program.exec_rows`` does: the halo is a view of
    the source array's slab, ``out`` a view of the destination's; the
    rows written are the row kernel's, bit for bit, and no other row
    of the destination changes."""
    rng = np.random.default_rng(100 * n_rows + 10 * n + lo)
    grid = rng.standard_normal((n_rows, n)) * 10.0
    src, dst = ProjectedArray("src", (n_rows, n)), ProjectedArray("dst", (n_rows, n))
    for arr in (src, dst):
        arr.hold(range(n_rows))
    src.set_block(0, grid)
    dst.rows(0, n_rows - 1)[:] = np.nan
    out = dst.rows(lo, hi)
    halo = src.rows(max(lo - 1, 0), min(hi + 1, n_rows - 1))
    assert jacobi_block_update(halo, lo == 0, hi == n_rows - 1, out=out) is out
    rows = np.stack([jacobi_row_update(grid[g], *_neighbors(grid, g))
                     for g in range(lo, hi + 1)])
    assert dst.block(lo, hi).tobytes() == rows.tobytes()
    rest = np.delete(dst.block(0, n_rows - 1), range(lo, hi + 1), axis=0)
    assert np.isnan(rest).all()
    assert src.block(0, n_rows - 1).tobytes() == grid.tobytes()


def test_jacobi_block_rejects_what_it_cannot_write_in_place():
    """A halo or ``out`` that is not C-contiguous, or an ``out`` of the
    wrong shape, raises instead of returning wrong rows."""
    grid = np.arange(40.0).reshape(5, 8)
    with pytest.raises(ValueError):
        jacobi_block_update(grid[:, ::2], top=True, bottom=True)
    with pytest.raises(ValueError):
        jacobi_block_update(grid, True, True, out=np.empty((8, 5)).T)
    with pytest.raises(ValueError):
        jacobi_block_update(grid, True, True, out=np.empty((4, 8)))
    with pytest.raises(ValueError):
        sor_block_halfsweep(grid[:, ::2], 0, 0, 1.5, top=True, bottom=True)


@st.composite
def particle_block(draw):
    """A block of counts and its ``(lo, step, seed)``; half-particle
    counts as the app holds them, or arbitrary reals."""
    k = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = (np.floor(rng.random((k, cols)) * 800) / 2.0 if draw(st.booleans())
              else rng.standard_normal((k, cols)) * 100.0)
    return (counts, draw(st.integers(0, 500)), draw(st.integers(0, 1000)),
            draw(st.integers(-3, 2**40)))


@given(particle_block())
@settings(max_examples=200, deadline=None)
def test_particle_block_equals_stacked_row_flows(case):
    counts, lo, step, seed = case
    by_row = [particle_row_flows(counts[i], lo + i, step, seed)
              for i in range(counts.shape[0])]
    block = particle_block_flows(counts, lo, step, seed)
    for slab, rows in zip(block, zip(*by_row)):  # stay, up, down
        assert np.array_equal(slab, np.stack(rows))


def test_particle_fractions_are_uniform_on_their_band():
    """Over a grid of seeds, steps, rows and cells, the shed fractions
    look like uniform ``[0.05, 0.15)`` draws: range, mean and variance
    (``0.1**2 / 12``) within six standard errors."""
    frac = np.concatenate([
        _particle_fractions(64, 256, lo, step, seed).ravel()
        for seed in (0, 7, -1, 2**40) for step in (0, 1, 99)
        for lo in (0, 1_000)])
    n = frac.size
    assert frac.min() >= 0.05 and frac.max() < 0.15
    var = 0.1**2 / 12
    assert abs(frac.mean() - 0.1) < 6 * np.sqrt(var / n)
    # the variance estimator's spread: (mu4 - sigma**4) / n, mu4 = w**4 / 80
    assert abs(frac.var() - var) < 6 * np.sqrt((0.1**4 / 80 - var**2) / n)


@given(st.integers(1, 12), st.integers(0, 500), st.integers(0, 1000),
       st.integers(-2**40, 2**40))
@settings(max_examples=100, deadline=None)
def test_particle_fractions_key_all_64_seed_bits(n, g, step, seed):
    """Seeds ``s`` and ``s + 2**31`` draw different fractions (no 31-bit
    mask aliases them); a negative seed is that seed mod ``2**64``."""
    frac = _particle_fractions(1, n, g, step, seed)
    assert not np.array_equal(frac, _particle_fractions(1, n, g, step, seed + 2**31))
    assert np.array_equal(frac, _particle_fractions(1, n, g, step, seed % 2**64))


@st.composite
def cg_span(draw):
    """``(n, lo, hi)`` with ``n`` below, around and far above the band
    width (the last also wraps the int64 hash products) and spans that
    touch row 0, row ``n - 1``, both or neither."""
    n = draw(st.one_of(st.integers(1, 15), st.integers(16, 80),
                       st.integers(2**33, 2**41)))
    lo = draw(st.sampled_from([0, max(n - 40, 0)]) | st.integers(0, n - 1))
    hi = draw(st.just(n - 1) | st.integers(lo, lo + 40))
    return n, lo, min(hi, n - 1, lo + 60)


@given(cg_span(), st.integers(1, 40), st.integers(-3, 2**40))
@settings(max_examples=200, deadline=None)
def test_cg_block_csr_equals_concatenated_rows(span, nnz_target, seed):
    n, lo, hi = span
    rows = [make_cg_rows(n, g, nnz_target=nnz_target, seed=seed)
            for g in range(lo, hi + 1)]
    indptr, cols, vals = cg_block_csr(n, lo, hi, nnz_target=nnz_target, seed=seed)
    assert indptr.tolist() == [0, *np.cumsum([len(c) for c, _ in rows])]
    assert np.array_equal(cols, np.concatenate([c for c, _ in rows]))
    assert np.array_equal(vals, np.concatenate([v for _, v in rows]))
    assert cols.dtype == rows[0][0].dtype and vals.dtype == rows[0][1].dtype


# ----------------------------------------------------------------------
# CG matrix generator
# ----------------------------------------------------------------------
def test_cg_rows_deterministic():
    c1, v1 = make_cg_rows(100, 42)
    c2, v2 = make_cg_rows(100, 42)
    assert np.array_equal(c1, c2) and np.array_equal(v1, v2)


def test_cg_rows_include_diagonal_and_stay_in_range():
    for g in (0, 50, 99):
        cols, vals = make_cg_rows(100, g)
        assert g in cols
        assert cols.min() >= 0 and cols.max() < 100
        diag = vals[list(cols).index(g)]
        assert diag > 0


def test_cg_matrix_spd_enough_for_cg():
    A = cg_matrix_dense(80)
    eigs = np.linalg.eigvalsh((A + A.T) / 2)
    assert eigs.min() > 0  # positive definite


def test_cg_reference_reduces_residual():
    A = cg_matrix_dense(50)
    b = np.ones(50)
    _, resid = cg_reference(A, b, 30)
    assert resid < 1e-8 * np.linalg.norm(b) * 50


def test_cg_reference_zero_matrix_guard():
    A = np.zeros((4, 4))
    x, resid = cg_reference(A, np.ones(4), 5)
    assert np.allclose(x, 0)  # breaks out on zero curvature


# ----------------------------------------------------------------------
# particle kernel
# ----------------------------------------------------------------------
def test_particle_flows_conserve_mass_per_row():
    counts = np.array([10.0, 4.0, 0.0, 7.5])
    stay, up, down = particle_row_flows(counts, g=3, step=5, seed=9)
    assert (stay.sum() + up.sum() + down.sum()) == pytest.approx(counts.sum())
    assert np.all(stay >= 0) and np.all(up >= 0) and np.all(down >= 0)


def test_particle_flows_deterministic_in_row_step_seed():
    counts = np.array([400.0, 250.0])
    a = particle_row_flows(counts, 1, 2, 3)
    b = particle_row_flows(counts, 1, 2, 3)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    c = particle_row_flows(counts, 1, 3, 3)
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_particle_reference_conserves_total_mass():
    counts = np.full((10, 6), 2.0)
    out = particle_reference(counts, steps=15)
    assert out.sum() == pytest.approx(counts.sum())
    assert np.all(out >= 0)


def test_particle_empty_grid_stays_empty():
    counts = np.zeros((5, 5))
    out = particle_reference(counts, steps=5)
    assert np.array_equal(out, counts)
