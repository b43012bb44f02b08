"""Tests for the CSR-slab SparseMatrix, its iterator API, and its
equivalence with the paper's vector of lists (tests/oracles/sparse_lists.py)."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._intervals import IntervalSet
from repro.apps.kernels import CG_WORK_PER_NNZ, CG_WORK_PER_ROW, cg_block_csr
from repro.dmem import SparseMatrix
from repro.dmem.sparse import ELEM_STORE_BYTES, ELEM_WIRE_BYTES, ROW_WIRE_BYTES
from repro.errors import AllocationError
from tests.oracles import sparse_lists


def build(n=6, m=8):
    s = SparseMatrix("s", (n, m))
    s.hold(range(n))
    return s


def test_shape_validation():
    with pytest.raises(AllocationError):
        SparseMatrix("s", (0, 5))
    with pytest.raises(AllocationError):
        SparseMatrix("s", (5, 0))


def test_get_default_zero_and_set():
    s = build()
    assert s.get(0, 3) == 0.0
    s.set(0, 3, 2.5)
    assert s.get(0, 3) == 2.5
    s.set(0, 3, 7.0)  # overwrite in place
    assert s.get(0, 3) == 7.0
    assert s.row_nnz(0) == 1


def test_set_zero_removes_element():
    s = build()
    s.set(1, 2, 4.0)
    s.set(1, 2, 0.0)
    assert s.row_nnz(1) == 0
    assert s.get(1, 2) == 0.0
    # setting an absent element to zero is a no-op
    s.set(1, 5, 0.0)
    assert s.row_nnz(1) == 0


def test_bounds_checking():
    s = build(4, 4)
    with pytest.raises(AllocationError):
        s.get(0, 4)
    with pytest.raises(AllocationError):
        s.set(4, 0, 1.0)
    with pytest.raises(AllocationError):
        s.set_row_items(0, [5], [1.0])
    with pytest.raises(AllocationError):
        s.set_row_items(0, [1, 2], [1.0])  # length mismatch


def test_unheld_row_raises():
    s = SparseMatrix("s", (4, 4))
    s.hold([0])
    with pytest.raises(AllocationError):
        s.get(2, 0)


def test_set_row_items_bulk():
    s = build()
    s.set_row_items(2, [1, 3, 5], [1.0, 3.0, 5.0])
    assert s.row_items(2) == [(1, 1.0), (3, 3.0), (5, 5.0)]
    s.set_row_items(2, [0], [9.0])  # replaces wholesale
    assert s.row_items(2) == [(0, 9.0)]


def test_store_accounting():
    s = build()
    s.set(0, 1, 1.0)
    s.set(0, 2, 2.0)
    assert s.held_nbytes == 2 * ELEM_STORE_BYTES
    s.drop([0])
    assert s.held_nbytes == 0
    assert s.stats.bytes_freed >= 2 * ELEM_STORE_BYTES


def test_pack_unpack_roundtrip():
    src = build()
    src.set_row_items(1, [0, 4], [1.5, 4.5])
    src.set_row_items(3, [2], [-2.0])
    payload, nbytes = src.pack([1, 2, 3])
    assert nbytes == 3 * ROW_WIRE_BYTES + 3 * ELEM_WIRE_BYTES

    dst = SparseMatrix("d", (6, 8))
    dst.unpack([1, 2, 3], payload)
    assert dst.row_items(1) == [(0, 1.5), (4, 4.5)]
    assert dst.row_items(2) == []
    assert dst.row_items(3) == [(2, -2.0)]


def test_unpack_validation():
    s = SparseMatrix("s", (4, 4))
    with pytest.raises(AllocationError):
        s.unpack([0], None)
    payload, _ = build().pack([0, 1])
    with pytest.raises(AllocationError):
        s.unpack([0], payload)  # row_ptr length mismatch


# ----------------------------------------------------------------------
# bulk CSR install == the per-row path it replaced
# ----------------------------------------------------------------------
def _install_by_row(m, rows, indptr, cols, vals):
    """What ``unpack`` did one row at a time before ``set_rows_csr``, on
    the list oracle ``m``."""
    for i, g in enumerate(rows):
        a, b = indptr[i], indptr[i + 1]
        if a == b:
            stale = m._rows.pop(g, None)
            if stale:
                m.stats.record_free(len(stale) * ELEM_STORE_BYTES)
            continue
        m.set_row_items(g, cols[a:b], vals[a:b])


def _state(m):
    return ([m.row_items(g) for g in m.held_rows()], dataclasses.asdict(m.stats))


@st.composite
def csr_installs(draw):
    """A few successive CSR blocks over rows of a 12 x 9 matrix: rows in
    any order, some empty, later blocks overwriting earlier ones."""
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        rows = draw(st.lists(st.integers(0, 11), min_size=1, max_size=8,
                             unique=True))
        lens = [draw(st.integers(0, 4)) for _ in rows]
        total = sum(lens)
        cols = draw(st.lists(st.integers(0, 8), min_size=total, max_size=total))
        vals = draw(st.lists(st.floats(-9, 9).filter(bool),
                             min_size=total, max_size=total))
        blocks.append((rows, np.cumsum([0, *lens]), np.array(cols, dtype=np.int32),
                       np.array(vals)))
    return blocks


@given(csr_installs())
@settings(max_examples=200, deadline=None)
def test_bulk_install_equals_per_row_install(blocks):
    bulk, by_row = build(12, 9), sparse_lists.SparseMatrix("s", (12, 9))
    by_row.hold(range(12))
    for rows, indptr, cols, vals in blocks:
        before = bulk.csr_version
        bulk.set_rows_csr(rows, indptr, cols, vals)
        assert bulk.csr_version > before
        _install_by_row(by_row, rows, indptr, cols, vals)
        assert _state(bulk) == _state(by_row)
        for a, b in zip(bulk.csr_rows(range(12)), by_row.csr_rows(range(12))):
            assert np.array_equal(a, b) and a.dtype == b.dtype
    assert all(type(c) is int and type(v) is float
               for g in bulk.held_rows() for c, v in bulk.row_items(g))


@pytest.mark.parametrize("rows, indptr, cols, vals", [
    ([1, 2], [0, 1, 2], [3, 8], [1.0, 2.0]),     # column 8 of 8
    ([1, 2], [0, 1, 2], [-1, 3], [1.0, 2.0]),    # negative column
    ([1, 2], [0, 2], [3, 4], [1.0, 2.0]),        # one indptr entry short
    ([1, 2], [0, 1, 3], [3, 4], [1.0, 2.0]),     # indptr runs past cols
    ([1, 2], [1, 1, 2], [3, 4], [1.0, 2.0]),     # indptr does not start at 0
    ([1, 2, 3], [0, 2, 1, 2], [3, 4], [1.0, 2.0]),  # indptr goes backwards
    ([1, 2], [0, 1, 2], [3, 4], [1.0]),          # cols/vals mismatch
    ([1, 5], [0, 1, 2], [3, 4], [1.0, 2.0]),     # row 5 not held
    ([1, 6], [0, 1, 2], [3, 4], [1.0, 2.0]),     # row 6 of 6
])
def test_bulk_install_rejects_bad_blocks_before_mutating(rows, indptr, cols, vals):
    s = SparseMatrix("s", (6, 8))
    s.hold(range(5))
    s.set_row_items(1, [0, 7], [5.0, 6.0])
    before = _state(s), s.csr_version
    with pytest.raises(AllocationError):
        s.set_rows_csr(rows, indptr, cols, vals)
    assert (_state(s), s.csr_version) == before


def test_pack_unpack_roundtrip_with_empty_rows_in_the_span():
    src = build(8, 8)
    src.set_row_items(2, [0, 4], [1.5, 4.5])
    src.set_row_items(5, [7], [-2.0])
    src.set(6, 1, 3.0)
    src.set(6, 1, 0.0)  # materialized, then emptied again
    span = list(range(1, 8))
    payload, nbytes = src.pack(span)
    assert payload["row_ptr"].tolist() == [0, 0, 2, 2, 2, 3, 3, 3]
    assert nbytes == 7 * ROW_WIRE_BYTES + 3 * ELEM_WIRE_BYTES

    dst = SparseMatrix("d", (8, 8))
    dst.hold([3, 5])
    dst.set_row_items(3, [2, 3], [9.0, 9.0])  # stale: row 3 arrives empty
    dst.set_row_items(5, [1], [9.0])          # stale: row 5 is replaced
    s0 = dst.stats.snapshot()
    dst.unpack(span, payload)
    assert dst.held_rows() == span
    assert [dst.row_items(g) for g in span] == [src.row_items(g) for g in span]
    assert dst.held_nbytes == 3 * ELEM_STORE_BYTES  # empty rows carry nothing
    delta = dst.stats.delta(s0)
    # five rows newly held; rows 2 and 5 installed; rows 3 and 5 freed
    assert (delta.n_allocs, delta.n_frees) == (5 + 2, 3)
    assert delta.bytes_allocated == 3 * ELEM_STORE_BYTES
    assert delta.bytes_freed == 3 * ELEM_STORE_BYTES
    again, _ = dst.pack(span)
    for key in payload:
        assert np.array_equal(again[key], payload[key])
        assert again[key].dtype == payload[key].dtype


def test_retarget_drops_and_counts_pointer_moves():
    s = build(10, 4)
    for g in range(10):
        s.set(g, 0, float(g))
    s.retarget([2, 3, 4])
    assert s.held_rows() == [2, 3, 4]
    assert s.get(3, 0) == 3.0
    assert s.stats.pointer_moves == 10


def test_iterator_walks_rows_in_order():
    s = build(3, 6)
    s.set_row_items(0, [1, 2], [1.0, 2.0])
    s.set_row_items(2, [5], [5.0])
    it = s.iterator()
    assert it.row == 0
    assert it.has_next()
    assert it.next() == (1, 1.0)
    assert it.next() == (2, 2.0)
    assert not it.has_next()
    assert it.advance_row()
    assert it.row == 1 and not it.has_next()
    assert it.advance_row()
    assert it.next() == (5, 5.0)
    assert not it.advance_row()  # end of matrix
    it.rewind()
    assert it.row == 0 and it.next() == (1, 1.0)


def test_iterator_set_next_updates_value():
    s = build(2, 4)
    s.set_row_items(0, [1], [1.0])
    it = s.iterator()
    it.set_next(9.0)
    assert it.next() == (1, 9.0)
    assert s.get(0, 1) == 9.0
    with pytest.raises(AllocationError):
        it.set_next(1.0)  # exhausted
    with pytest.raises(AllocationError):
        it.next()


def test_iterator_start_row_and_errors():
    s = SparseMatrix("s", (4, 4))
    with pytest.raises(AllocationError):
        s.iterator()  # nothing held
    s.hold([1, 3])
    it = s.iterator(3)
    assert it.row == 3
    with pytest.raises(AllocationError):
        s.iterator(0)  # not held


def test_csr_rows_matches_contents_and_version_tracks_changes():
    s = build(4, 6)
    s.set_row_items(0, [0, 5], [1.0, 2.0])
    s.set_row_items(1, [3], [3.0])
    v0 = s.csr_version
    indptr, cols, vals = s.csr_rows([0, 1, 2])
    assert list(indptr) == [0, 2, 3, 3]
    assert list(cols) == [0, 5, 3]
    assert list(vals) == [1.0, 2.0, 3.0]
    s.set(2, 2, 1.0)
    assert s.csr_version != v0  # snapshot is stale


def test_csr_dot_equivalence():
    """A CSR snapshot must compute the same mat-vec as scipy."""
    import scipy.sparse as sp

    rng = np.random.default_rng(42)
    n = 20
    dense = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
    s = SparseMatrix("s", (n, n))
    s.hold(range(n))
    for g in range(n):
        cols = np.nonzero(dense[g])[0]
        s.set_row_items(g, cols, dense[g][cols])
    indptr, cols, vals = s.csr_rows(list(range(n)))
    csr = sp.csr_matrix((vals, cols, indptr), shape=(n, n))
    x = rng.random(n)
    assert np.allclose(csr @ x, dense @ x)


def test_row_wire_nbytes():
    s = build(2, 8)
    s.set_row_items(0, [1, 2, 3], [1, 2, 3])
    assert s.row_wire_nbytes(0) == ROW_WIRE_BYTES + 3 * ELEM_WIRE_BYTES
    assert s.row_wire_nbytes(1) == ROW_WIRE_BYTES


# ----------------------------------------------------------------------
# CSR slabs == the paper's vector of lists, operation by operation
# ----------------------------------------------------------------------
_N, _M = 12, 9
_rows = st.lists(st.integers(0, _N - 1), max_size=8)
_val = st.floats(-9, 9, allow_nan=False)
_ops = st.one_of(
    st.tuples(st.sampled_from(["hold", "drop", "retarget"]), _rows),
    st.tuples(st.just("roundtrip"), _rows, st.booleans()),
    st.tuples(st.just("set"), st.integers(0, _N - 1), st.integers(0, _M - 1),
              st.one_of(st.just(0.0), _val)),
    st.tuples(st.just("set_row_items"), st.integers(0, _N - 1),
              st.lists(st.tuples(st.integers(0, _M - 1), _val), max_size=5)),
    st.tuples(st.just("set_rows_csr"), csr_installs()),
    st.tuples(st.just("set_next"), st.integers(0, _N - 1), st.integers(0, 3), _val),
)


def _apply(m, op):
    """Run ``op`` on ``m``; returns what it returned or the error type."""
    kind, *args = op
    try:
        if kind in ("hold", "drop", "retarget"):
            return getattr(m, kind)(args[0])
        if kind == "roundtrip":  # rows in any order: drop and unpack
            rows = list(dict.fromkeys(args[0]))  # them, or unpack mirrored
            payload, nbytes = m.pack(rows)
            if args[1]:
                rows.reverse()
            else:
                m.drop(rows)
            m.unpack(rows, payload)
            return nbytes, [payload[k].tobytes() for k in sorted(payload)]
        if kind == "set":
            return m.set(*args)
        if kind == "set_row_items":
            g, items = args
            return m.set_row_items(g, [c for c, _ in items], [v for _, v in items])
        if kind == "set_rows_csr":
            for block in args[0]:
                m.set_rows_csr(*block)
            return None
        g, steps, value = args
        it = m.iterator(g)
        for _ in range(steps):
            if it.has_next():
                it.next()
        return it.set_next(value)
    except AllocationError:
        return AllocationError


def _full_state(m):
    rows = m.held_rows()
    payload, nbytes = m.pack(m.held_intervals())
    return (rows, [m.row_items(g) for g in rows], m.held_nbytes, m.csr_version,
            nbytes, {k: (a.dtype, a.tobytes()) for k, a in payload.items()},
            dataclasses.asdict(m.stats))


@given(st.lists(_ops, min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_csr_slabs_equal_the_list_oracle(ops):
    m, ref = SparseMatrix("s", (_N, _M)), sparse_lists.SparseMatrix("s", (_N, _M))
    for op in [("hold", range(_N)), *ops]:
        assert _apply(m, op) == _apply(ref, op), op
        assert _full_state(m) == _full_state(ref), op


@given(st.lists(_ops, max_size=12), st.integers(0, _N - 1), st.integers(0, _N - 1))
@settings(max_examples=200, deadline=None)
def test_rows_nnz_equals_the_per_row_loop(ops, lo, hi):
    """``rows_nnz`` reads the slab ``indptr``s: the per-row ``row_nnz``
    loop's counts, its error on a row not held, no ``AllocStats`` move."""
    lo, hi = min(lo, hi), max(lo, hi)
    m = SparseMatrix("s", (_N, _M))
    for op in [("hold", range(_N)), *ops]:
        _apply(m, op)
    stats = dataclasses.asdict(m.stats)
    try:
        loop = [m.row_nnz(g) for g in range(lo, hi + 1)]
    except AllocationError:
        with pytest.raises(AllocationError):
            m.rows_nnz(lo, hi)
    else:
        got = m.rows_nnz(lo, hi)
        assert got.dtype == np.int64 and got.tolist() == loop
    assert dataclasses.asdict(m.stats) == stats


def test_cg_work_vector_is_bitwise_the_per_row_loops():
    n = 700
    a = SparseMatrix("A", (n, n))
    a.hold(range(n))
    for lo in range(0, n, 256):
        hi = min(lo + 255, n - 1)
        a.set_rows_csr(range(lo, hi + 1), *cg_block_csr(n, lo, hi))
    for lo, hi in ((0, n - 1), (37, 300), (255, 256), (699, 699)):
        loop = np.array([a.row_nnz(g) for g in range(lo, hi + 1)], dtype=float)
        fast = a.rows_nnz(lo, hi).astype(float)
        assert ((fast * CG_WORK_PER_NNZ + CG_WORK_PER_ROW).tobytes()
                == (loop * CG_WORK_PER_NNZ + CG_WORK_PER_ROW).tobytes())


def test_cg_matrix_costs_at_most_24_bytes_per_element():
    """The 7 000-row CG matrix of the Figure 4 grid, built the way the
    app builds it: what stays live is the CSR data (12 B an element)
    plus the row pointers and the slab objects."""
    n = 7000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        a = SparseMatrix("A", (n, n))
        a.hold(range(n))
        for lo in range(0, n, 256):
            hi = min(lo + 255, n - 1)
            a.set_rows_csr(range(lo, hi + 1), *cg_block_csr(n, lo, hi))
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    nnz = a.held_nbytes // ELEM_STORE_BYTES
    assert nnz > 10 * n
    assert live / nnz <= 24


def test_row_runs_in_any_order_pack_as_given():
    s = build(8, 8)
    for g in range(8):
        s.set_row_items(g, [g], [float(g)])
    payload, _ = s.pack([5, 6, 2, 2, 7])
    assert payload["cols"].tolist() == [5, 6, 2, 2, 7]
    assert payload["row_ptr"].tolist() == [0, 1, 2, 3, 4, 5]
    with pytest.raises(AllocationError):
        s.set_rows_csr([3, 3], [0, 1, 2], [1, 2], [1.0, 2.0])  # a row twice
    assert s.pack(IntervalSet.span(0, 7))[0]["cols"].tolist() == list(range(8))
