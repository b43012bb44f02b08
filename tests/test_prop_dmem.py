"""Property-based tests (hypothesis) for the memory substrate:
pack/unpack round trips, hold/drop invariants, the
projection-vs-contiguous accounting ordering, and slab storage
bitwise-equal to the retired dict-of-rows layout."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervals import IntervalSet
from repro.dmem import AllocStats, ContiguousArray, ProjectedArray, SparseMatrix
from tests.oracles.row_sets import RowDictStore

row_sets = st.sets(st.integers(min_value=0, max_value=39), min_size=1, max_size=40)


@given(rows=row_sets, data=st.data())
@settings(max_examples=60, deadline=None)
def test_dense_pack_unpack_roundtrip(rows, data):
    rows = sorted(rows)
    src = ProjectedArray("src", (40, 3))
    dst = ProjectedArray("dst", (40, 3))
    src.hold(rows)
    values = {}
    for g in rows:
        vec = data.draw(
            st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=3, max_size=3)
        )
        src.row(g)[:] = vec
        values[g] = np.array(vec)
    payload, nbytes = src.pack(rows)
    assert nbytes == len(rows) * src.row_nbytes
    dst.unpack(rows, payload)
    for g in rows:
        assert np.array_equal(dst.row(g), values[g])


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_one_slab_per_held_run(data):
    """Over random hold / drop / retarget / unpack sequences each
    maximal run of held rows is exactly one slab, every row equals a
    dict oracle, and ``AllocStats`` hold what per-row accounting
    charges (one alloc/free per row, one row copy per unpacked row,
    the pointer vector per retarget): merging slabs costs nothing."""
    n, w = 40, 2
    arr = ProjectedArray("a", (n, w))
    ref: dict = {}
    want = AllocStats()
    nbytes = arr.row_nbytes
    for step in range(data.draw(st.integers(1, 12))):
        op = data.draw(st.sampled_from(["hold", "drop", "retarget", "unpack"]))
        rows = data.draw(st.sets(st.integers(0, n - 1), max_size=12))
        if op == "drop":
            gone = rows & ref.keys()
            assert arr.drop(rows) == len(gone)
            want.record_frees(len(gone), len(gone) * nbytes)
        elif op == "retarget":
            gone = ref.keys() - rows
            arr.retarget(rows)
            want.record_frees(len(gone), len(gone) * nbytes)
            want.record_pointer_moves(n)
        else:
            new = rows - ref.keys()
            if op == "hold":
                assert arr.hold(rows) == len(new)
            else:
                order = sorted(rows)
                payload = np.arange(len(order) * w, dtype=float).reshape(-1, w) + step
                arr.unpack(order, payload)
                want.record_copy(len(order) * nbytes)
                ref.update((g, payload[i]) for i, g in enumerate(order))
            want.record_allocs(len(new), len(new) * nbytes)
            ref.update((g, np.zeros(w)) for g in new - ref.keys())
        for g in gone if op in ("drop", "retarget") else ():
            del ref[g]
        runs = IntervalSet.from_rows(ref).spans
        assert arr.n_slabs == len(runs)
        if runs:  # write through one run's view; later merges keep it
            lo, hi = data.draw(st.sampled_from(runs))
            arr.rows(lo, hi)[:] = -step
            ref.update((g, np.full(w, -step, dtype=float)) for g in range(lo, hi + 1))
        for g, val in ref.items():
            assert arr.row(g).tobytes() == val.tobytes(), g
        assert arr.stats == want


@given(held=row_sets, keep=row_sets)
@settings(max_examples=60, deadline=None)
def test_dense_retarget_invariants(held, keep):
    a = ProjectedArray("a", (40, 2))
    a.hold(held)
    a.retarget(keep)
    # exactly the intersection survives
    assert set(a.held_rows()) == held & keep
    # surviving rows never got copied
    assert a.stats.bytes_copied == 0


@given(
    ops=st.lists(
        st.tuples(
            st.integers(0, 9),            # row
            st.integers(0, 9),            # col
            st.floats(-100, 100, allow_nan=False),
        ),
        max_size=60,
    )
)
@settings(max_examples=60, deadline=None)
def test_sparse_matches_dense_reference(ops):
    s = SparseMatrix("s", (10, 10))
    s.hold(range(10))
    ref = np.zeros((10, 10))
    for r, c, v in ops:
        s.set(r, c, v)
        ref[r, c] = v
    for r in range(10):
        for c in range(10):
            assert s.get(r, c) == ref[r, c]
        assert s.row_nnz(r) == np.count_nonzero(ref[r])


@given(rows=st.lists(st.integers(0, 19), min_size=1, max_size=20, unique=True),
       data=st.data())
@settings(max_examples=40, deadline=None)
def test_sparse_pack_unpack_roundtrip(rows, data):
    rows = sorted(rows)
    src = SparseMatrix("src", (20, 15))
    src.hold(rows)
    ref = {}
    for g in rows:
        cols = data.draw(st.sets(st.integers(0, 14), max_size=6))
        items = sorted((c, float(c + g)) for c in cols)
        src.set_row_items(g, [c for c, _ in items], [v for _, v in items])
        ref[g] = items
    payload, _ = src.pack(rows)
    dst = SparseMatrix("dst", (20, 15))
    dst.unpack(rows, payload)
    for g in rows:
        assert sorted(dst.row_items(g)) == ref[g]


@given(
    old_lo=st.integers(0, 60), old_len=st.integers(1, 40),
    new_lo=st.integers(0, 60), new_len=st.integers(1, 40),
)
@settings(max_examples=80, deadline=None)
def test_projection_byte_traffic_never_exceeds_contiguous(old_lo, old_len, new_lo, new_len):
    """Figure 3 as an invariant over *byte* traffic: for any block-range
    change, the projection layout copies nothing and allocates only the
    gained rows, while the contiguous layout reallocates the whole new
    block and copies the overlap.  (The projection layout does pay more
    malloc *calls* — one per row — which is the trade the paper accepts
    because its extended rows are large.)"""
    n, width = 100, 16
    old = set(range(old_lo, min(old_lo + old_len, n)))
    new = set(range(new_lo, min(new_lo + new_len, n)))

    proj = ProjectedArray("p", (n, width), materialized=False)
    proj.hold(old)
    cont = ContiguousArray("c", (n, width), materialized=False)
    cont.resize(min(old), max(old))
    p0, c0 = proj.stats.snapshot(), cont.stats.snapshot()

    proj.retarget(new)
    proj.hold(new)
    cont.resize(min(new), max(new))

    pd, cd = proj.stats.delta(p0), cont.stats.delta(c0)
    assert pd.bytes_copied == 0
    assert pd.bytes_copied <= cd.bytes_copied
    assert pd.bytes_allocated == len(new - old) * proj.row_nbytes
    assert pd.bytes_allocated <= cd.bytes_allocated


# ---------------------------------------------------------------------------
# slab storage vs the retired dict-of-rows layout
# ---------------------------------------------------------------------------
def _assert_bitwise_equal(slab: ProjectedArray, ref: RowDictStore):
    assert sorted(slab.held_rows()) == ref.held_rows()
    for g in ref.held_rows():
        assert slab.row(g).tobytes() == ref.row(g).tobytes(), g


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_slab_matches_rowdict_through_ops(data):
    """Random hold/drop/retarget/pack+unpack sequences leave the
    slab-backed array bitwise identical to the dict-of-rows layout."""
    n = 40
    slab = ProjectedArray("s", (n, 3))
    ref = RowDictStore(n, 3)
    other_slab = ProjectedArray("o", (n, 3))
    other_ref = RowDictStore(n, 3)

    for _ in range(data.draw(st.integers(1, 8))):
        op = data.draw(st.sampled_from(["hold", "drop", "retarget", "xfer"]))
        rows = data.draw(st.sets(st.integers(0, n - 1), max_size=15))
        if op == "hold":
            assert slab.hold(rows) == ref.hold(sorted(rows))
            for g in rows:
                val = data.draw(st.floats(-1e6, 1e6, allow_nan=False))
                slab.row(g)[:] = val
                ref.row(g)[:] = val
        elif op == "drop":
            assert slab.drop(rows) == ref.drop(sorted(rows))
        elif op == "retarget":
            slab.retarget(rows)
            ref.retarget(rows)
        else:
            # pack a held subset into the peer pair: the wire format of
            # an interval pack must reproduce the per-row pack bit for
            # bit (redistribute sends interval payloads, unpack fills
            # the receiver's slabs)
            held = IntervalSet.from_rows(ref.held_rows())
            sub = IntervalSet.from_rows(rows) & held
            pay_slab, nb_slab = slab.pack(sub)
            pay_ref, nb_ref = ref.pack(sub.to_rows())
            assert nb_slab == nb_ref
            assert pay_slab.tobytes() == pay_ref.tobytes()
            other_slab.unpack(sub, pay_slab)
            other_ref.unpack(sub.to_rows(), pay_ref)
            _assert_bitwise_equal(other_slab, other_ref)
        _assert_bitwise_equal(slab, ref)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_slab_matches_rowdict_redistribute_recovery_cycle(data):
    """A full redistribute → crash → checkpoint-restore cycle executed
    side by side on slab-backed and dict-of-rows storage ends bitwise
    identical on every rank."""
    n_ranks, n_rows = 3, 24
    cuts = sorted(data.draw(st.lists(st.integers(0, n_rows), min_size=2,
                                     max_size=2)))
    edges = [0, *cuts, n_rows]
    old_bounds = [
        None if edges[i] == edges[i + 1] else (edges[i], edges[i + 1] - 1)
        for i in range(n_ranks)
    ]
    cuts2 = sorted(data.draw(st.lists(st.integers(0, n_rows), min_size=2,
                                      max_size=2)))
    edges2 = [0, *cuts2, n_rows]
    new_bounds = [
        None if edges2[i] == edges2[i + 1] else (edges2[i], edges2[i + 1] - 1)
        for i in range(n_ranks)
    ]

    slabs = [ProjectedArray(f"s{r}", (n_rows, 2)) for r in range(n_ranks)]
    refs = [RowDictStore(n_rows, 2) for _ in range(n_ranks)]
    for r in range(n_ranks):
        own = IntervalSet.from_bounds(old_bounds[r])
        slabs[r].hold(own)
        refs[r].hold(own.to_rows())
        for g in own:
            slabs[r].row(g)[:] = [g * 1.5, r - 0.25]
            refs[r].row(g)[:] = [g * 1.5, r - 0.25]

    # redistribute: the interval send rule on both layouts
    for src in range(n_ranks):
        src_old = IntervalSet.from_bounds(old_bounds[src])
        for dst in range(n_ranks):
            if dst == src:
                continue
            dst_old = IntervalSet.from_bounds(old_bounds[dst])
            send = (IntervalSet.from_bounds(new_bounds[dst]) - dst_old) & src_old
            if not send:
                continue
            pay_s, _ = slabs[src].pack(send)
            pay_r, _ = refs[src].pack(send.to_rows())
            assert pay_s.tobytes() == pay_r.tobytes()
            slabs[dst].unpack(send, pay_s)
            refs[dst].unpack(send.to_rows(), pay_r)
    for r in range(n_ranks):
        keep = IntervalSet.from_bounds(new_bounds[r])
        slabs[r].retarget(keep)
        refs[r].retarget(keep.to_rows())
        _assert_bitwise_equal(slabs[r], refs[r])

    # crash one rank; its buddy restores it from a whole-slab checkpoint
    victim = data.draw(st.integers(0, n_ranks - 1))
    own = IntervalSet.from_bounds(new_bounds[victim])
    ck_s = slabs[victim].pack(own)[0] if own else None
    ck_r = refs[victim].pack(own.to_rows())[0] if own else None
    slabs[victim].retarget(IntervalSet.empty())
    refs[victim].retarget([])
    if own:
        slabs[victim].unpack(own, ck_s)
        refs[victim].unpack(own.to_rows(), ck_r)
    _assert_bitwise_equal(slabs[victim], refs[victim])
