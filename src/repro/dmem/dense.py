"""Dense matrices in the paper's 2-d projection layout (Section 4.1.1).

An N-dimensional array is projected onto two dimensions: the first
axis stays, and each *extended row* holds the product of the remaining
N-1 dimensions.  Locally a node holds a set of global row intervals,
and each maximal run of held rows is backed by exactly **one**
contiguous numpy **slab** (rows are views sliced out of the slab on
demand).  This preserves exactly the properties redistribution needs:

* a whole extended row — or a whole interval of rows — travels in a
  single message, packed with one slice copy per held run;
* rows that stay local are *reused* — dropping neighbors splits a slab
  into sub-views of the same buffer and only the top-level pointer
  vector is rewritten (``pointer_moves``); once the views left of a
  buffer cover at most half of it, they are copied out so the dead
  rows' memory is freed (host memory only: the model still charges
  no copy);
* any held span ``lo..hi`` is one live view (:meth:`ProjectedArray.rows`),
  so a stencil reads its halo and writes its rows in place.

The one-slab-per-run invariant is kept by :meth:`ProjectedArray.hold`
(and so ``unpack``): a new interval that touches held rows is merged
with their slabs into one fresh buffer.  That merge is a host copy
only: like the copy-out above it is not charged, so :class:`AllocStats`
(and the redistribution cost it feeds) records exactly the per-row
allocations it would record without it.

Accounting stays per extended row (the paper's Figure 3 charges one
malloc/free per row) via the bulk :meth:`AllocStats.record_allocs` /
:meth:`~AllocStats.record_frees` hooks, so the cost model is unchanged
while the Python-level bookkeeping is O(intervals).

Arrays can be *materialized* (real numpy buffers — used by tests,
examples, and small benches, so numerical correctness is checkable) or
*virtual* (only byte sizes tracked — used by paper-scale benches where
only timing matters; both modes drive identical runtime code paths).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterable, Sequence

import numpy as np

from .._intervals import IntervalSet
from ..errors import AllocationError
from .allocator import AllocStats

__all__ = ["ProjectedArray"]


def row_runs(rows) -> list:
    """``rows`` (any order) as its maximal runs ``(lo, hi)`` of
    consecutive ascending rows, in order."""
    if isinstance(rows, range) and rows.step == 1:
        rows = IntervalSet.coerce(rows)
    if isinstance(rows, IntervalSet):
        return list(rows.spans)
    r = np.fromiter(rows, dtype=np.int64)
    if not len(r):
        return []
    cut = np.flatnonzero(np.diff(r) != 1) + 1
    return list(zip(r[np.r_[0, cut]].tolist(), r[np.r_[cut - 1, len(r) - 1]].tolist()))


def compact_views(slabs: list) -> list:
    """The slab layouts' rule for dead rows: where the views left of one
    buffer (``slab.pinned()`` -> buffer, live bytes, buffer bytes) add
    up to at most half of it, each is replaced by ``slab.compacted()``,
    a copy owning just its rows; otherwise they stay views."""
    pins = [s.pinned() for s in slabs]
    live: dict[int, int] = {}
    for pin in pins:
        if pin is not None:
            live[id(pin[0])] = live.get(id(pin[0]), 0) + pin[1]
    return [s.compacted() if pin is not None and 2 * live[id(pin[0])] <= pin[2] else s
            for s, pin in zip(slabs, pins)]


class _Slab:
    """One contiguous block of extended rows ``lo..hi`` (inclusive).

    ``block`` is a (hi-lo+1, row_elems) numpy buffer for materialized
    arrays, None for virtual ones.  Splitting a slab produces views of
    the same buffer; :func:`compact_views` decides when they are copied
    out."""

    __slots__ = ("lo", "hi", "block")

    def __init__(self, lo: int, hi: int, block):
        self.lo = lo
        self.hi = hi
        self.block = block

    def view(self, lo: int, hi: int) -> "_Slab":
        block = None
        if self.block is not None:
            block = self.block[lo - self.lo: hi - self.lo + 1]
        return _Slab(lo, hi, block)

    def pinned(self):
        block = self.block
        if block is None:
            return None
        base = block if block.base is None else block.base
        return base, block.nbytes, base.nbytes

    def compacted(self) -> "_Slab":
        return _Slab(self.lo, self.hi, self.block.copy())


class SlabRows:
    """Row membership and slabs, shared by the dense and sparse layouts:
    held global rows as an :class:`IntervalSet` (so hold/drop/retarget
    cost O(intervals)) and disjoint slabs — ``lo``, ``hi``, ``view``,
    ``pinned``, ``compacted`` — sorted by first row, found by bisect.
    Subclasses define ``hold`` and ``held_nbytes``."""

    def __init__(self, name: str, n_rows: int):
        self.name = name
        self.n_rows = n_rows
        self.stats = AllocStats()
        self._held = IntervalSet.empty()
        self._slabs: list = []          # sorted by lo, disjoint
        self._los: list[int] = []       # parallel bisect index
        self._version = 0               # bumped by drop; SparseMatrix.csr_version

    def _check_row(self, g: int) -> None:
        if not (0 <= g < self.n_rows):
            raise AllocationError(f"{self.name}: row {g} out of range [0,{self.n_rows})")

    def _check_interval(self, ivl: IntervalSet) -> None:
        if ivl:
            self._check_row(ivl.min_row)
            self._check_row(ivl.max_row)

    def _check_held(self, rows) -> None:
        missing = IntervalSet.coerce(rows) - self._held
        if missing:
            self._check_interval(missing)
            raise AllocationError(
                f"{self.name}: row {missing.min_row} is not held locally")

    def _overlap(self, lo: int, hi: int) -> slice:  # slabs that may hold lo..hi
        return slice(max(bisect_right(self._los, lo) - 1, 0), bisect_right(self._los, hi))

    def _slab_at(self, g: int):
        """The slab holding row ``g``, or None."""
        i = bisect_right(self._los, g) - 1
        return self._slabs[i] if i >= 0 and g <= self._slabs[i].hi else None

    def _insert_slab(self, slab) -> None:
        i = bisect_right(self._los, slab.lo)
        self._los.insert(i, slab.lo)
        self._slabs.insert(i, slab)

    def _cut(self, ivl: IntervalSet) -> None:
        """Take rows ``ivl`` out of the slabs, leaving views of the rest."""
        if not ivl:
            return
        where = self._overlap(ivl.min_row, ivl.max_row)
        kept, hit = [], False
        for slab in self._slabs[where]:
            span = IntervalSet.span(slab.lo, slab.hi)
            if span.isdisjoint(ivl):
                kept.append(slab)
                continue
            kept += [slab.view(lo, hi) for lo, hi in (span - ivl).spans]
            hit = True
        if hit:
            self._slabs[where] = kept
            self._slabs = compact_views(self._slabs)
            self._los = [s.lo for s in self._slabs]

    def drop(self, rows: Iterable[int]) -> int:
        """Free ``rows``; returns the number dropped.  Surviving rows of
        a split slab stay views of its buffer unless :func:`compact_views`
        copies them out (host memory only: no copy is charged)."""
        gone = IntervalSet.coerce(rows) & self._held
        if not gone:
            return 0
        before = self.held_nbytes
        self._cut(gone)
        self._held = self._held - gone
        self.stats.record_frees(len(gone), before - self.held_nbytes)
        self._version += 1
        return len(gone)

    def retarget(self, keep) -> None:
        """Rewrite the top-level pointer vector for a new local set:
        drop rows not in ``keep``; surviving rows are reused (pointer
        copy only, the projection method's selling point)."""
        keep = IntervalSet.coerce(keep)
        self._check_interval(keep)
        self.drop(self._held - keep)
        # the top-level vector (size = first dimension) is copied
        self.stats.record_pointer_moves(self.n_rows)

    def held_rows(self) -> list[int]:
        return self._held.to_rows()

    def held_intervals(self) -> IntervalSet:
        return self._held

    def holds(self, g: int) -> bool:
        return g in self._held

    @property
    def n_held(self) -> int:
        return len(self._held)

    @property
    def n_slabs(self) -> int:
        return len(self._slabs)


class ProjectedArray(SlabRows):
    """A distributed dense array in 2-d projection layout."""

    def __init__(
        self,
        name: str,
        shape: Sequence[int],
        dtype=np.float64,
        *,
        materialized: bool = True,
    ):
        shape = tuple(int(s) for s in shape)
        if len(shape) < 1 or any(s <= 0 for s in shape):
            raise AllocationError(f"invalid shape {shape}")
        super().__init__(name, shape[0])
        self.shape = shape
        self.row_elems = int(math.prod(shape[1:])) if len(shape) > 1 else 1
        self.dtype = np.dtype(dtype)
        self.row_nbytes = self.row_elems * self.dtype.itemsize
        self.materialized = materialized

    # ------------------------------------------------------------------
    # row lifecycle
    # ------------------------------------------------------------------
    def _slab_of(self, g: int) -> _Slab:
        slab = self._slab_at(g)
        if slab is None:
            raise AllocationError(f"{self.name}: row {g} is not held locally")
        return slab

    def hold(self, rows: Iterable[int]) -> int:
        """Allocate ``rows`` (no-op for rows already held).  Accepts an
        :class:`IntervalSet`, a range, or any iterable of global rows.
        Returns the number of rows newly allocated.

        Each maximal held run stays one slab: a new interval that
        touches held rows is merged with their slabs into one buffer
        (a host copy, not charged; views of the merged slabs are
        stale).  A ``range`` already held returns after one bisect."""
        if isinstance(rows, range) and rows.step == 1 and rows:
            slab = self._slab_at(rows.start)
            if slab is not None and rows.stop - 1 <= slab.hi:
                return 0
        ivl = IntervalSet.coerce(rows)
        self._check_interval(ivl)
        new = ivl - self._held
        if not new:
            return 0
        held = self._held | new
        old, i, slabs = self._slabs, 0, []
        for lo, hi in held.spans:
            j = i
            while j < len(old) and old[j].lo <= hi:
                j += 1
            run = old[i:j]
            i = j
            if len(run) == 1 and run[0].lo == lo and run[0].hi == hi:
                slabs.append(run[0])
            else:
                slabs.append(self._merged(lo, hi, run))
        self._slabs = compact_views(slabs)
        self._los = [s.lo for s in slabs]
        self._held = held
        n = len(new)
        self.stats.record_allocs(n, n * self.row_nbytes)
        return n

    def _merged(self, lo: int, hi: int, run: list) -> _Slab:
        """One slab for rows ``lo..hi``: the held slabs ``run`` copied
        into a fresh zeroed buffer, the rest zero."""
        block = None
        if self.materialized:
            block = np.zeros((hi - lo + 1, self.row_elems), dtype=self.dtype)
            for slab in run:
                block[slab.lo - lo: slab.hi - lo + 1] = slab.block
        return _Slab(lo, hi, block)

    @property
    def held_nbytes(self) -> int:
        return len(self._held) * self.row_nbytes

    # ------------------------------------------------------------------
    # element access (materialized only)
    # ------------------------------------------------------------------
    def _materialized_slab(self, g: int) -> _Slab:
        slab = self._slab_of(g)
        if slab.block is None:
            raise AllocationError(f"{self.name} is virtual; row data unavailable")
        return slab

    def row(self, g: int) -> np.ndarray:
        """The buffer of global row ``g``: a live, writable view into its
        slab, valid only until the next :meth:`hold` / :meth:`unpack`
        (which may merge the slab into a new buffer) or :meth:`drop` /
        :meth:`retarget` (which may copy it out)."""
        self._check_row(g)
        slab = self._materialized_slab(g)
        return slab.block[g - slab.lo]

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows ``lo..hi`` inclusive as a live, writable (hi-lo+1,
        row_elems) view into their slab — the block analogue of
        :meth:`row`, valid as long as a row view is.  Every row must be
        held; a held span is one slab, so it is always one view."""
        if hi < lo:
            raise AllocationError(f"{self.name}: empty block [{lo},{hi}]")
        self._check_row(lo)
        self._check_row(hi)
        slab = self._materialized_slab(lo)
        if hi > slab.hi:
            raise AllocationError(f"{self.name}: row {slab.hi + 1} is not held locally")
        return slab.block[lo - slab.lo: hi - slab.lo + 1]

    def set_row(self, g: int, data: np.ndarray) -> None:
        buf = self.row(g)
        data = np.asarray(data, dtype=self.dtype).reshape(self.row_elems)
        buf[:] = data
        self.stats.record_copy(self.row_nbytes)

    def _views(self, runs):
        """Yield ``(pos, rows)`` along the runs ``(lo, hi)`` in order: each
        run's :meth:`rows` view, at row offset ``pos`` of the runs."""
        pos = 0
        for lo, hi in runs:
            yield pos, self.rows(lo, hi)
            pos += hi - lo + 1

    def block(self, lo: int, hi: int) -> np.ndarray:
        """Copy rows ``lo..hi`` inclusive into a contiguous 2-d array
        (row-major), shaped (hi-lo+1, row_elems)."""
        return self.rows(lo, hi).copy()

    def set_block(self, lo: int, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=self.dtype)
        k = data.shape[0]
        if k == 0:
            return
        self.rows(lo, lo + k - 1)[:] = data.reshape(k, self.row_elems)
        self.stats.record_copy(k * self.row_nbytes)

    # ------------------------------------------------------------------
    # redistribution support
    # ------------------------------------------------------------------
    def pack(self, rows):
        """Pack ``rows`` for the wire.  Returns ``(payload, nbytes)``:
        for materialized arrays a (k, row_elems) array whose row ``i`` is
        the ``i``-th row of ``rows`` (any order; ascending for an
        :class:`IntervalSet`), one slice copy per run; None for
        virtual ones (sizes still charged)."""
        runs = row_runs(rows)
        self._check_held(IntervalSet(runs))
        k = sum(hi - lo + 1 for lo, hi in runs)
        if not self.materialized:
            return None, k * self.row_nbytes
        out = np.empty((k, self.row_elems), dtype=self.dtype)
        for pos, block in self._views(runs):
            out[pos: pos + len(block)] = block
        self.stats.record_copy(k * self.row_nbytes)
        return out, k * self.row_nbytes

    def unpack(self, rows, payload) -> None:
        """Install received ``payload`` into ``rows`` (allocating them),
        row ``i`` of the payload into the ``i``-th row of ``rows``."""
        runs = row_runs(rows)  # reads a one-shot iterator once
        self.hold(IntervalSet(runs))
        if not self.materialized:
            return
        if payload is None:
            raise AllocationError(f"{self.name}: materialized array received no data")
        payload = np.asarray(payload, dtype=self.dtype)
        k = sum(hi - lo + 1 for lo, hi in runs)
        if payload.shape != (k, self.row_elems):
            raise AllocationError(f"{self.name}: bad unpack shape {payload.shape}, "
                                  f"expected {(k, self.row_elems)}")
        for pos, block in self._views(runs):
            block[:] = payload[pos: pos + len(block)]
        self.stats.record_copy(k * self.row_nbytes)

    def __repr__(self) -> str:  # pragma: no cover
        kind = "mat" if self.materialized else "virt"
        return f"<ProjectedArray {self.name} {self.shape} {kind} held={self.n_held}>"
