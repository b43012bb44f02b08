"""Dense matrices in the paper's 2-d projection layout (Section 4.1.1).

An N-dimensional array is projected onto two dimensions: the first
axis stays, and each *extended row* holds the product of the remaining
N-1 dimensions.  Locally a node holds a set of global row intervals;
each interval is backed by one contiguous numpy **slab** (rows are
views sliced out of the slab on demand).  This preserves exactly the
properties redistribution needs:

* a whole extended row — or a whole interval of rows — travels in a
  single message, packed with a handful of slice copies;
* rows that stay local are *reused* — dropping neighbors splits a slab
  into sub-views of the same buffer, so surviving rows are never
  copied and only the top-level pointer vector is rewritten
  (``pointer_moves``).

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
from bisect import bisect_right, insort
from typing import Iterable, Sequence

import numpy as np

from .._intervals import IntervalSet
from ..errors import AllocationError
from .allocator import AllocStats

__all__ = ["ProjectedArray", "VirtualRow"]


class VirtualRow:
    """Placeholder for a row in an unmaterialized array."""

    __slots__ = ("nbytes",)

    def __init__(self, nbytes: int):
        self.nbytes = nbytes

    def __repr__(self) -> str:  # pragma: no cover
        return f"<VirtualRow {self.nbytes}B>"


class _Slab:
    """One contiguous block of extended rows ``lo..hi`` (inclusive).

    ``block`` is a (hi-lo+1, row_elems) numpy buffer for materialized
    arrays, None for virtual ones.  Splitting a slab produces views of
    the same buffer — never a copy."""

    __slots__ = ("lo", "hi", "block")

    def __init__(self, lo: int, hi: int, block):
        self.lo = lo
        self.hi = hi
        self.block = block

    def __lt__(self, other) -> bool:  # insort ordering
        return self.lo < other.lo

    def view(self, lo: int, hi: int) -> "_Slab":
        block = None
        if self.block is not None:
            block = self.block[lo - self.lo: hi - self.lo + 1]
        return _Slab(lo, hi, block)


class ProjectedArray:
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
        self.name = name
        self.shape = shape
        self.n_rows = shape[0]
        self.row_elems = int(math.prod(shape[1:])) if len(shape) > 1 else 1
        self.dtype = np.dtype(dtype)
        self.row_nbytes = self.row_elems * self.dtype.itemsize
        self.materialized = materialized
        self.stats = AllocStats()
        self._held = IntervalSet.empty()
        self._slabs: list[_Slab] = []   # sorted by lo, disjoint
        self._los: list[int] = []       # parallel bisect index

    # ------------------------------------------------------------------
    # row lifecycle
    # ------------------------------------------------------------------
    def _check_row(self, g: int) -> None:
        if not (0 <= g < self.n_rows):
            raise AllocationError(f"{self.name}: row {g} out of range [0,{self.n_rows})")

    def _check_interval(self, ivl: IntervalSet) -> None:
        if ivl:
            if ivl.min_row < 0:
                self._check_row(ivl.min_row)
            if ivl.max_row >= self.n_rows:
                self._check_row(ivl.max_row)

    def _insert_slab(self, slab: _Slab) -> None:
        i = bisect_right(self._los, slab.lo)
        self._los.insert(i, slab.lo)
        self._slabs.insert(i, slab)

    def _slab_of(self, g: int) -> _Slab:
        i = bisect_right(self._los, g) - 1
        if i >= 0:
            slab = self._slabs[i]
            if g <= slab.hi:
                return slab
        raise AllocationError(f"{self.name}: row {g} is not held locally")

    def hold(self, rows: Iterable[int]) -> int:
        """Allocate slabs for ``rows`` (no-op for rows already held).
        Accepts an :class:`IntervalSet`, a range, or any iterable of
        global rows.  Returns the number of rows newly allocated."""
        ivl = IntervalSet.coerce(rows)
        self._check_interval(ivl)
        new = ivl - self._held
        if not new:
            return 0
        for lo, hi in new.spans:
            block = None
            if self.materialized:
                block = np.zeros((hi - lo + 1, self.row_elems), dtype=self.dtype)
            self._insert_slab(_Slab(lo, hi, block))
        self._held = self._held | new
        n = len(new)
        self.stats.record_allocs(n, n * self.row_nbytes)
        return n

    def drop(self, rows: Iterable[int]) -> int:
        """Free ``rows``; returns the number dropped.  Surviving rows
        of a split slab stay as views of the original buffer (no
        copies)."""
        gone = IntervalSet.coerce(rows) & self._held
        if not gone:
            return 0
        new_slabs: list[_Slab] = []
        for slab in self._slabs:
            if gone.isdisjoint(IntervalSet.span(slab.lo, slab.hi)):
                new_slabs.append(slab)
                continue
            keep = IntervalSet.span(slab.lo, slab.hi) - gone
            for lo, hi in keep.spans:
                new_slabs.append(slab.view(lo, hi))
        self._slabs = new_slabs
        self._los = [s.lo for s in new_slabs]
        self._held = self._held - gone
        n = len(gone)
        self.stats.record_frees(n, n * self.row_nbytes)
        return n

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
        """The buffer of global row ``g`` (a live view into its slab,
        writable)."""
        self._check_row(g)
        slab = self._materialized_slab(g)
        return slab.block[g - slab.lo]

    def set_row(self, g: int, data: np.ndarray) -> None:
        buf = self.row(g)
        data = np.asarray(data, dtype=self.dtype).reshape(self.row_elems)
        buf[:] = data
        self.stats.record_copy(self.row_nbytes)

    def _runs(self, ivl: IntervalSet):
        """Yield ``(g_lo, g_hi, slab)`` for maximal contiguous runs of
        ``ivl`` inside single slabs; raises if any row is unheld."""
        for lo, hi in ivl.spans:
            g = lo
            while g <= hi:
                slab = self._slab_of(g)
                run_hi = min(hi, slab.hi)
                yield g, run_hi, slab
                g = run_hi + 1

    def block(self, lo: int, hi: int) -> np.ndarray:
        """Copy rows ``lo..hi`` inclusive into a contiguous 2-d array
        (row-major), shaped (hi-lo+1, row_elems)."""
        if hi < lo:
            raise AllocationError(f"empty block [{lo},{hi}]")
        self._check_row(lo)
        self._check_row(hi)
        out = np.empty((hi - lo + 1, self.row_elems), dtype=self.dtype)
        for g_lo, g_hi, slab in self._runs(IntervalSet.span(lo, hi)):
            if slab.block is None:
                raise AllocationError(
                    f"{self.name} is virtual; row data unavailable")
            out[g_lo - lo: g_hi - lo + 1] = \
                slab.block[g_lo - slab.lo: g_hi - slab.lo + 1]
        return out

    def set_block(self, lo: int, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=self.dtype)
        k = data.shape[0]
        if k == 0:
            return
        data = data.reshape(k, self.row_elems)
        self._check_row(lo)
        self._check_row(lo + k - 1)
        for g_lo, g_hi, slab in self._runs(IntervalSet.span(lo, lo + k - 1)):
            if slab.block is None:
                raise AllocationError(
                    f"{self.name} is virtual; row data unavailable")
            slab.block[g_lo - slab.lo: g_hi - slab.lo + 1] = \
                data[g_lo - lo: g_hi - lo + 1]
        self.stats.record_copy(k * self.row_nbytes)

    # ------------------------------------------------------------------
    # redistribution support
    # ------------------------------------------------------------------
    def pack(self, rows):
        """Pack ``rows`` for the wire.  Returns ``(payload, nbytes)``:
        a (k, row_elems) array for materialized arrays, None for
        virtual ones (sizes still charged).

        With an :class:`IntervalSet` (or any sorted iterable) the
        payload is built with one slice copy per slab run.  An
        explicitly ordered sequence keeps its order (payload row ``i``
        is global row ``rows[i]``)."""
        if isinstance(rows, IntervalSet) or isinstance(rows, range):
            ivl = IntervalSet.coerce(rows)
            k = len(ivl)
            nbytes = k * self.row_nbytes
            if not self.materialized:
                missing = ivl - self._held
                if missing:
                    raise AllocationError(
                        f"{self.name}: packing unheld row {missing.min_row}")
                return None, nbytes
            out = np.empty((k, self.row_elems), dtype=self.dtype)
            pos = 0
            for g_lo, g_hi, slab in self._runs(ivl):
                n = g_hi - g_lo + 1
                out[pos: pos + n] = \
                    slab.block[g_lo - slab.lo: g_hi - slab.lo + 1]
                pos += n
            self.stats.record_copy(nbytes)
            return out, nbytes
        # legacy path: arbitrary row order preserved
        rows = list(rows)
        nbytes = len(rows) * self.row_nbytes
        if not self.materialized:
            for g in rows:
                if g not in self._held:
                    raise AllocationError(f"{self.name}: packing unheld row {g}")
            return None, nbytes
        out = np.empty((len(rows), self.row_elems), dtype=self.dtype)
        for i, g in enumerate(rows):
            out[i] = self.row(g)
        self.stats.record_copy(nbytes)
        return out, nbytes

    def unpack(self, rows, payload) -> None:
        """Install received ``payload`` into ``rows`` (allocating them).
        Row ``i`` of the payload is global row ``i`` of ``rows`` in
        iteration order (ascending for an :class:`IntervalSet`)."""
        interval_input = isinstance(rows, (IntervalSet, range))
        if not interval_input:
            rows = list(rows)  # may be a one-shot iterator
        ivl = IntervalSet.coerce(rows)
        self.hold(ivl)
        if not self.materialized:
            return
        if payload is None:
            raise AllocationError(f"{self.name}: materialized array received no data")
        payload = np.asarray(payload, dtype=self.dtype)
        if interval_input:
            if payload.shape != (len(ivl), self.row_elems):
                raise AllocationError(
                    f"{self.name}: bad unpack shape {payload.shape}, "
                    f"expected {(len(ivl), self.row_elems)}"
                )
            pos = 0
            for g_lo, g_hi, slab in self._runs(ivl):
                n = g_hi - g_lo + 1
                slab.block[g_lo - slab.lo: g_hi - slab.lo + 1] = \
                    payload[pos: pos + n]
                pos += n
            self.stats.record_copy(len(ivl) * self.row_nbytes)
            return
        if payload.shape != (len(rows), self.row_elems):
            raise AllocationError(
                f"{self.name}: bad unpack shape {payload.shape}, "
                f"expected {(len(rows), self.row_elems)}"
            )
        for i, g in enumerate(rows):
            slab = self._materialized_slab(g)
            slab.block[g - slab.lo] = payload[i]
        self.stats.record_copy(len(rows) * self.row_nbytes)

    def retarget(self, keep) -> None:
        """Rewrite the top-level pointer vector for a new local set:
        drop rows not in ``keep``; surviving rows are reused (pointer
        copy only, the projection method's selling point)."""
        keep = IntervalSet.coerce(keep)
        self._check_interval(keep)
        self.drop(self._held - keep)
        # the top-level vector (size = first dimension) is copied
        self.stats.record_pointer_moves(self.n_rows)

    def __repr__(self) -> str:  # pragma: no cover
        kind = "mat" if self.materialized else "virt"
        return f"<ProjectedArray {self.name} {self.shape} {kind} held={self.n_held}>"
