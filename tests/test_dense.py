"""Tests for ProjectedArray (2-d projection layout) and the
ContiguousArray baseline."""

import numpy as np
import pytest

from repro.core.intervals import IntervalSet
from repro.dmem import ContiguousArray, MemCostModel, ProjectedArray
from repro.errors import AllocationError


def test_shape_projection_extended_rows():
    a = ProjectedArray("a", (10, 4, 3))
    assert a.n_rows == 10
    assert a.row_elems == 12
    assert a.row_nbytes == 12 * 8
    b = ProjectedArray("b", (5,))
    assert b.row_elems == 1


def test_invalid_shape_rejected():
    with pytest.raises(AllocationError):
        ProjectedArray("a", (0, 3))
    with pytest.raises(AllocationError):
        ProjectedArray("a", (4, -1))
    with pytest.raises(AllocationError):
        ContiguousArray("a", ())


def test_hold_drop_and_accounting():
    a = ProjectedArray("a", (8, 2))
    assert a.hold([0, 1, 2]) == 3
    assert a.hold([2, 3]) == 1  # row 2 already held
    assert a.held_rows() == [0, 1, 2, 3]
    assert a.drop([1, 7]) == 1
    assert a.held_rows() == [0, 2, 3]
    assert a.stats.n_allocs == 4
    assert a.stats.n_frees == 1
    assert a.stats.bytes_allocated == 4 * a.row_nbytes


def test_row_access_and_write():
    a = ProjectedArray("a", (4, 3))
    a.hold([1])
    a.row(1)[:] = [1.0, 2.0, 3.0]
    assert np.array_equal(a.row(1), [1.0, 2.0, 3.0])
    a.set_row(1, np.zeros(3))
    assert np.array_equal(a.row(1), np.zeros(3))


def test_unheld_row_access_raises():
    a = ProjectedArray("a", (4, 3))
    with pytest.raises(AllocationError):
        a.row(0)
    with pytest.raises(AllocationError):
        a.row(99)
    with pytest.raises(AllocationError):
        a.hold([4])


def test_virtual_array_has_no_data():
    a = ProjectedArray("a", (4, 3), materialized=False)
    a.hold([0])
    with pytest.raises(AllocationError):
        a.row(0)
    payload, nbytes = a.pack([0])
    assert payload is None
    assert nbytes == a.row_nbytes
    a.unpack([1], None)  # allocates the row, no data needed
    assert a.holds(1)


def test_block_roundtrip():
    a = ProjectedArray("a", (6, 2))
    a.hold(range(2, 5))
    data = np.arange(6.0).reshape(3, 2)
    a.set_block(2, data)
    assert np.array_equal(a.block(2, 4), data)
    with pytest.raises(AllocationError):
        a.block(4, 2)


def test_block_roundtrip_across_merged_ghost_rows():
    """Ghost rows held after the owned rows merge with them into one
    slab, so ``block`` / ``set_block`` / ``rows`` cover the whole run."""
    a = ProjectedArray("a", (12, 3))
    a.hold(range(4, 8))   # the owned rows
    a.hold([3])           # ghosts arrive one at a time, after
    a.hold([8])
    assert a.n_slabs == 1
    data = np.arange(18.0).reshape(6, 3)
    a.set_block(3, data)
    assert np.array_equal(a.block(3, 8), data)
    assert np.array_equal(a.block(5, 8), data[2:])
    for g in range(3, 9):  # every row landed where its run keeps it
        assert np.array_equal(a.row(g), data[g - 3])
    a.block(3, 8)[:] = -1.0  # a gather is a copy, not a view
    assert np.array_equal(a.block(3, 8), data)
    with pytest.raises(AllocationError):
        a.block(2, 8)  # row 2 is not held
    with pytest.raises(AllocationError):
        a.set_block(7, np.zeros((3, 3)))  # nor is row 9


def test_rows_is_a_live_view_of_a_held_run():
    """``rows`` is one writable view per held run; a hold inside the
    run keeps its buffer, one that extends it merges the run into a
    new buffer with the data kept and nothing charged for the copy."""
    a = ProjectedArray("a", (10, 2))
    a.hold(range(2, 6))
    view = a.rows(3, 5)
    view[:] = 7.0
    assert np.all(a.row(4) == 7.0)
    assert a.hold(range(3, 5)) == 0
    assert np.shares_memory(a.rows(2, 5), view)
    assert a.hold([6]) == 1
    assert a.n_slabs == 1
    assert not np.shares_memory(a.rows(2, 6), view)  # the old view is stale
    assert np.array_equal(a.block(2, 6), [[0, 0], [7, 7], [7, 7], [7, 7], [0, 0]])
    assert (a.stats.n_allocs, a.stats.bytes_copied) == (5, 0)
    for lo, hi in ((5, 7), (0, 2), (4, 3), (6, 10)):
        with pytest.raises(AllocationError):
            a.rows(lo, hi)  # unheld row, empty span, out of range
    v = ProjectedArray("v", (10, 2), materialized=False)
    v.hold(range(3))
    with pytest.raises(AllocationError):
        v.rows(0, 2)


@pytest.mark.parametrize("make", [
    lambda: ProjectedArray("a", (6, 4)),
    lambda: _resized(ContiguousArray("c", (6, 4)), 0, 5),
], ids=["projected", "contiguous"])
def test_unpack_reads_its_rows_argument_once(make):
    """A one-shot iterator, a list and an IntervalSet of the same rows
    install the same data."""
    payload = np.arange(8.0).reshape(2, 4)
    installed = []
    for rows in ((g for g in [2, 3]), [2, 3], IntervalSet.span(2, 3)):
        arr = make()
        arr.unpack(rows, payload)
        assert arr.holds(2) and arr.holds(3)
        installed.append(np.stack([arr.row(2), arr.row(3)]))
    for got in installed:
        assert np.array_equal(got, payload)


def _resized(arr, lo, hi):
    arr.resize(lo, hi)
    return arr


def test_pack_unpack_preserves_data():
    src = ProjectedArray("src", (10, 4))
    dst = ProjectedArray("dst", (10, 4))
    src.hold([3, 5, 7])
    for g in (3, 5, 7):
        src.row(g)[:] = g
    payload, nbytes = src.pack([3, 5, 7])
    assert nbytes == 3 * src.row_nbytes
    dst.unpack([3, 5, 7], payload)
    for g in (3, 5, 7):
        assert np.all(dst.row(g) == g)


def test_unpack_shape_mismatch_raises():
    a = ProjectedArray("a", (4, 3))
    with pytest.raises(AllocationError):
        a.unpack([0, 1], np.zeros((1, 3)))
    with pytest.raises(AllocationError):
        a.unpack([0], None)


def test_retarget_reuses_surviving_rows():
    """The projection method's key property: rows that stay local are
    not copied or reallocated, only the pointer vector is rewritten."""
    a = ProjectedArray("a", (100, 8))
    a.hold(range(0, 50))
    for g in range(0, 50):
        a.row(g)[:] = g
    before = a.stats.snapshot()
    buf40 = a.row(40)
    a.retarget(range(20, 50))  # shrink: keep 30 rows
    delta = a.stats.delta(before)
    assert delta.bytes_copied == 0
    assert delta.bytes_allocated == 0
    assert delta.n_frees == 20
    assert delta.pointer_moves == 100
    # same underlying buffer: the surviving slab is a view, not a copy
    # (it keeps more than half of the buffer alive)
    assert np.shares_memory(a.row(40), buf40)
    assert np.array_equal(a.row(40), buf40)
    assert np.all(a.row(40) == 40)


def test_drop_copies_out_a_mostly_dead_buffer():
    """Host memory only: survivors that keep at most half of their
    buffer alive get a buffer of their own; more than half stay a view.
    Neither charges a copy."""
    a = ProjectedArray("a", (1000, 4))
    a.hold(range(1000))
    a.row(5)[:] = 5.0
    a.drop(range(100, 1000))
    assert a.row(0).base.shape == (100, 4)  # owns a 100-row buffer
    assert np.all(a.row(5) == 5.0)
    b = ProjectedArray("b", (1000, 4))
    b.hold(range(1000))
    b.drop(range(900, 1000))
    assert b.row(0).base.shape == (1000, 4)  # still a view
    assert a.stats.bytes_copied == b.stats.bytes_copied == 0


def test_drop_counts_every_view_of_a_buffer_together():
    a = ProjectedArray("a", (1000, 4))
    a.hold(range(1000))
    a.drop(range(300, 600))   # two views keep 700 rows: no copy
    a.drop(range(600, 850))   # 450 rows left of 1000: both copied out
    assert a.row(0).base.shape == (300, 4)
    assert a.row(900).base.shape == (150, 4)
    assert a.n_slabs == 2


def test_hold_merge_applies_the_copy_out_rule_to_views_it_leaves():
    """A merge that takes one view of a buffer leaves the others; once
    they cover at most half of it they get their own buffer, as after
    a drop."""
    a = ProjectedArray("a", (200, 4))
    a.hold(range(100))
    a.row(5)[:] = 5.0
    a.drop(range(40, 50))            # views of 40 + 50 rows: kept
    assert a.row(0).base.shape == (100, 4)
    a.hold(range(100, 110))          # merges the 50-row view away
    assert a.n_slabs == 2
    assert a.row(0).base.shape == (40, 4)
    assert np.all(a.row(5) == 5.0)
    assert a.stats.bytes_copied == 0


def test_contiguous_resize_copies_overlap():
    c = ContiguousArray("c", (100, 8))
    c.resize(0, 49)
    for g in range(0, 50):
        c.row(g)[:] = g
    before = c.stats.snapshot()
    c.resize(30, 59)  # shift: overlap is rows 30..49
    delta = c.stats.delta(before)
    assert delta.bytes_allocated == 30 * c.row_nbytes
    assert delta.bytes_copied == 20 * c.row_nbytes
    assert delta.n_frees == 1
    assert np.all(c.row(40) == 40)       # survived the copy
    assert np.all(c.row(55) == 0.0)      # fresh rows zeroed


def test_contiguous_rejects_out_of_range_rows():
    c = ContiguousArray("c", (10, 2))
    c.resize(0, 4)
    with pytest.raises(AllocationError):
        c.row(7)
    with pytest.raises(AllocationError):
        c.resize(5, 10)
    with pytest.raises(AllocationError):
        c.unpack([9], np.zeros((1, 2)))


def test_contiguous_release():
    c = ContiguousArray("c", (10, 2))
    c.resize(0, 9)
    c.release()
    assert c.bounds is None
    assert c.n_held == 0
    assert c.stats.bytes_freed == 10 * c.row_nbytes


def test_projection_beats_contiguous_on_shift():
    """Figure 3's claim, quantitatively: shifting a partition boundary
    costs the projection layout far less memory traffic than the
    contiguous layout."""
    n, width = 1000, 64
    proj = ProjectedArray("p", (n, width))
    cont = ContiguousArray("c", (n, width))
    proj.hold(range(0, 500))
    cont.resize(0, 499)
    p0, c0 = proj.stats.snapshot(), cont.stats.snapshot()

    # gain 10 rows at the bottom, lose nothing else
    proj.retarget(range(0, 510))
    proj.hold(range(500, 510))
    cont.resize(0, 509)

    model = MemCostModel()
    p_work = model.work(proj.stats.delta(p0))
    c_work = model.work(cont.stats.delta(c0))
    assert p_work < c_work / 10


def test_cost_model_paging_penalty():
    from repro.dmem import AllocStats

    model = MemCostModel(paging_threshold=0.5, paging_factor=40.0)
    stats = AllocStats()
    stats.record_alloc(100 * 1024)
    small_mem_work = model.work(stats, memory_bytes=100 * 1024)  # pages
    big_mem_work = model.work(stats, memory_bytes=10 * 1024 * 1024)  # fits
    assert small_mem_work > 10 * big_mem_work


def test_stats_merge_and_delta():
    from repro.dmem import AllocStats

    a = AllocStats()
    a.record_alloc(10)
    b = AllocStats()
    b.record_copy(5)
    b.record_free(3)
    a.merge(b)
    assert a.bytes_allocated == 10
    assert a.bytes_copied == 5
    assert a.bytes_freed == 3
    snap = a.snapshot()
    a.record_copy(7)
    assert a.delta(snap).bytes_copied == 7


def test_stats_negative_values_rejected():
    from repro.dmem import AllocStats

    s = AllocStats()
    with pytest.raises(AllocationError):
        s.record_alloc(-1)
    with pytest.raises(AllocationError):
        s.record_copy(-1)
    with pytest.raises(AllocationError):
        s.record_free(-1)
    with pytest.raises(AllocationError):
        s.record_pointer_moves(-1)
