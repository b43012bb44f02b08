"""Contiguous allocation baseline (paper Figure 3, left).

A node's local partition is a single contiguous buffer covering one
global row range.  Any change to the range — even gaining one row at
the top — forces a *complete reallocation*: allocate the new block,
copy every surviving row into its new position, free the old block.
The accounting (and the paging penalty in
:class:`~repro.dmem.allocator.MemCostModel`) makes the cost difference
against :class:`~repro.dmem.dense.ProjectedArray` measurable; the
Figure 3 bench regenerates exactly that comparison.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .._intervals import IntervalSet
from ..errors import AllocationError
from .allocator import AllocStats

__all__ = ["ContiguousArray"]


class ContiguousArray:
    """A distributed dense array in single-block contiguous layout."""

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
        self._lo: Optional[int] = None  # inclusive
        self._hi: Optional[int] = None  # inclusive
        self._data: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @property
    def bounds(self) -> Optional[tuple[int, int]]:
        if self._lo is None:
            return None
        return (self._lo, self._hi)

    def holds(self, g: int) -> bool:
        return self._lo is not None and self._lo <= g <= self._hi

    @property
    def n_held(self) -> int:
        return 0 if self._lo is None else self._hi - self._lo + 1

    @property
    def held_nbytes(self) -> int:
        return self.n_held * self.row_nbytes

    def held_rows(self) -> list[int]:
        if self._lo is None:
            return []
        return list(range(self._lo, self._hi + 1))

    # ------------------------------------------------------------------
    def resize(self, lo: int, hi: int) -> None:
        """Switch the local partition to rows ``lo..hi`` inclusive.

        Performs the complete reallocation: new block, copy of the
        overlap, free of the old block.
        """
        if not (0 <= lo <= hi < self.n_rows):
            raise AllocationError(f"{self.name}: bad range [{lo},{hi}]")
        n_new = hi - lo + 1
        new_nbytes = n_new * self.row_nbytes
        self.stats.record_alloc(new_nbytes)
        new_data = (
            np.zeros((n_new, self.row_elems), dtype=self.dtype)
            if self.materialized else None
        )
        if self._lo is not None:
            olo, ohi = self._lo, self._hi
            overlap_lo, overlap_hi = max(lo, olo), min(hi, ohi)
            if overlap_lo <= overlap_hi:
                n_copy = overlap_hi - overlap_lo + 1
                if self.materialized:
                    new_data[overlap_lo - lo: overlap_lo - lo + n_copy] = \
                        self._data[overlap_lo - olo: overlap_lo - olo + n_copy]
                self.stats.record_copy(n_copy * self.row_nbytes)
            self.stats.record_free((ohi - olo + 1) * self.row_nbytes)
        self._lo, self._hi = lo, hi
        self._data = new_data

    def release(self) -> None:
        """Free the local partition entirely."""
        if self._lo is not None:
            self.stats.record_free(self.held_nbytes)
        self._lo = self._hi = None
        self._data = None

    # ------------------------------------------------------------------
    def row(self, g: int) -> np.ndarray:
        if not self.holds(g):
            raise AllocationError(f"{self.name}: row {g} is not held locally")
        if not self.materialized:
            raise AllocationError(f"{self.name} is virtual; row data unavailable")
        return self._data[g - self._lo]

    def set_row(self, g: int, data) -> None:
        buf = self.row(g)
        buf[:] = np.asarray(data, dtype=self.dtype).reshape(self.row_elems)
        self.stats.record_copy(self.row_nbytes)

    def pack(self, rows):
        """Same wire format as :meth:`ProjectedArray.pack`; with an
        :class:`IntervalSet` the payload is one slice copy per span."""
        if isinstance(rows, (IntervalSet, range)):
            ivl = IntervalSet.coerce(rows)
            nbytes = len(ivl) * self.row_nbytes
            held = (IntervalSet.empty() if self._lo is None
                    else IntervalSet.span(self._lo, self._hi))
            missing = ivl - held
            if missing:
                raise AllocationError(
                    f"{self.name}: packing unheld row {missing.min_row}")
            if not self.materialized:
                return None, nbytes
            out = np.empty((len(ivl), self.row_elems), dtype=self.dtype)
            pos = 0
            for lo, hi in ivl.spans:
                n = hi - lo + 1
                out[pos: pos + n] = self._data[lo - self._lo: hi - self._lo + 1]
                pos += n
            self.stats.record_copy(nbytes)
            return out, nbytes
        nbytes = len(rows) * self.row_nbytes
        if not self.materialized:
            for g in rows:
                if not self.holds(g):
                    raise AllocationError(f"{self.name}: packing unheld row {g}")
            return None, nbytes
        out = np.empty((len(rows), self.row_elems), dtype=self.dtype)
        for i, g in enumerate(rows):
            out[i] = self.row(g)
        self.stats.record_copy(nbytes)
        return out, nbytes

    def unpack(self, rows, payload) -> None:
        if isinstance(rows, (IntervalSet, range)):
            ivl = IntervalSet.coerce(rows)
            held = (IntervalSet.empty() if self._lo is None
                    else IntervalSet.span(self._lo, self._hi))
            outside = ivl - held
            if outside:
                raise AllocationError(
                    f"{self.name}: contiguous layout cannot accept row "
                    f"{outside.min_row} outside its range {self.bounds}; "
                    f"resize first"
                )
            if not self.materialized:
                return
            payload = np.asarray(payload, dtype=self.dtype)
            pos = 0
            for lo, hi in ivl.spans:
                n = hi - lo + 1
                self._data[lo - self._lo: hi - self._lo + 1] = \
                    payload[pos: pos + n]
                pos += n
            self.stats.record_copy(len(ivl) * self.row_nbytes)
            return
        rows = list(rows)  # may be a one-shot iterator
        for g in rows:
            if not self.holds(g):
                raise AllocationError(
                    f"{self.name}: contiguous layout cannot accept row {g} "
                    f"outside its range {self.bounds}; resize first"
                )
        if not self.materialized:
            return
        payload = np.asarray(payload, dtype=self.dtype)
        for i, g in enumerate(rows):
            self._data[g - self._lo] = payload[i]
        self.stats.record_copy(len(rows) * self.row_nbytes)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ContiguousArray {self.name} {self.shape} range={self.bounds}>"
