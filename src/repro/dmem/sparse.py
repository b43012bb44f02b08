"""Sparse matrices in the paper's vector-of-lists format (Section 4.1.2).

In the paper each local row is a list of ``(column id, value)`` pairs,
data and metadata together, so rows move between nodes whole, *packed
into a vector* for the wire (Section 4.4).  That list is the cost model:
:class:`AllocStats` charges a list node per element (``ELEM_STORE_BYTES``)
and one allocation per row installed.  Storage is CSR slabs, the sparse
twin of the dense slabs: ``indptr`` (int64), ``cols`` (int32) and
``vals`` (float64) for a run of held rows, 12 bytes an element.  A held
row in no slab is empty; a drop leaves views, copied out by the dense
layout's rule once mostly dead.  :class:`SparseIterator` is the paper's
iterator API, and :meth:`SparseMatrix.csr_rows` its remedy for list
traversal — a CSR snapshot between redistributions, which CG uses.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from .._intervals import IntervalSet
from ..errors import AllocationError
from .dense import SlabRows, row_runs

__all__ = ["SparseMatrix", "SparseIterator"]

#: accounting bytes per stored element: 8B value + 4B column id +
#: list-node overhead (next pointer + allocator slack)
ELEM_STORE_BYTES = 8 + 4 + 20
#: wire bytes per element: value + column id only
ELEM_WIRE_BYTES = 8 + 4
#: wire bytes per packed row header (row id + count)
ROW_WIRE_BYTES = 8


class _CSRSlab:
    """Rows ``lo..hi``: row ``g`` is ``cols/vals[indptr[g - lo]:indptr[g - lo + 1]]``.
    The offsets are absolute, so views of some rows share ``cols``/``vals``."""

    __slots__ = ("lo", "hi", "indptr", "cols", "vals")

    def __init__(self, lo: int, hi: int, indptr, cols, vals):
        self.lo, self.hi, self.indptr, self.cols, self.vals = lo, hi, indptr, cols, vals

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1] - self.indptr[0])

    def view(self, lo: int, hi: int) -> "_CSRSlab":
        return _CSRSlab(lo, hi, self.indptr[lo - self.lo: hi - self.lo + 2],
                        self.cols, self.vals)

    def pinned(self):
        ptr = self.indptr
        base = ptr if ptr.base is None else ptr.base
        return (self.cols, ptr.nbytes + self.nnz * ELEM_WIRE_BYTES,
                base.nbytes + self.cols.nbytes + self.vals.nbytes)

    def compacted(self) -> "_CSRSlab":
        a, b = self.indptr[0], self.indptr[-1]
        return _CSRSlab(self.lo, self.hi, self.indptr - a,
                        self.cols[a:b].copy(), self.vals[a:b].copy())


class SparseMatrix(SlabRows):
    """A distributed sparse matrix in CSR slabs, charged as the paper's
    vector of lists of (col, val).  Within a row, elements keep
    insertion order."""

    def __init__(self, name: str, shape: tuple[int, int], dtype=np.float64):
        n_rows, n_cols = int(shape[0]), int(shape[1])
        if n_rows <= 0 or n_cols <= 0:
            raise AllocationError(f"invalid sparse shape {shape}")
        super().__init__(name, n_rows)
        self.shape = (n_rows, n_cols)
        self.n_cols = n_cols
        self.dtype = np.dtype(dtype)

    # ------------------------------------------------------------------
    # row lifecycle
    # ------------------------------------------------------------------
    def _check_col(self, c: int) -> None:
        if not (0 <= c < self.n_cols):
            raise AllocationError(f"{self.name}: column {c} out of range [0,{self.n_cols})")

    def hold(self, rows: Iterable[int]) -> int:
        ivl = IntervalSet.coerce(rows)
        self._check_interval(ivl)
        new = ivl - self._held
        if not new:
            return 0
        self._held = self._held | new
        self.stats.record_allocs(len(new), 0)
        self._version += 1
        return len(new)

    @property
    def held_nbytes(self) -> int:
        return sum(s.nnz for s in self._slabs) * ELEM_STORE_BYTES

    def row_nnz(self, g: int) -> int:
        _, a, b = self._locate(g)
        return b - a

    def row_wire_nbytes(self, g: int) -> int:
        return ROW_WIRE_BYTES + self.row_nnz(g) * ELEM_WIRE_BYTES

    def _locate(self, g: int):
        """``(slab, a, b)``: row ``g`` is ``slab.cols/vals[a:b]`` (slab is
        None for a held row with no elements)."""
        self._check_row(g)
        if g not in self._held:
            raise AllocationError(f"{self.name}: row {g} is not held locally")
        s = self._slab_at(g)
        if s is None:
            return None, 0, 0
        return s, int(s.indptr[g - s.lo]), int(s.indptr[g - s.lo + 1])

    def rows_nnz(self, lo: int, hi: int) -> np.ndarray:
        """Element counts (int64) of the held rows ``lo..hi``, read off
        the ``indptr`` of each slab the run crosses: no pack, no copy."""
        self._check_held(range(lo, hi + 1))
        n = np.zeros(hi - lo + 1, dtype=np.int64)
        for s in self._slabs[self._overlap(lo, hi)]:
            a, b = max(lo, s.lo), min(hi, s.hi)
            if a <= b:
                n[a - lo: b - lo + 1] = np.diff(s.indptr[a - s.lo: b - s.lo + 2])
        return n

    def _csr(self, runs):
        """``(indptr, cols, vals)`` of the row ``runs``, in order: one slice
        of each slab a run crosses, concatenated."""
        counts, cols, vals = [np.zeros(0, np.int64)], [np.zeros(0, np.int32)], [np.zeros(0)]
        for lo, hi in runs:
            n = np.zeros(hi - lo + 1, dtype=np.int64)
            for s in self._slabs[self._overlap(lo, hi)]:
                a, b = max(lo, s.lo), min(hi, s.hi)
                if a <= b:
                    ptr = s.indptr[a - s.lo: b - s.lo + 2]
                    n[a - lo: b - lo + 1] = np.diff(ptr)
                    cols.append(s.cols[ptr[0]:ptr[-1]])
                    vals.append(s.vals[ptr[0]:ptr[-1]])
            counts.append(n)
        counts = np.concatenate(counts)
        indptr = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, np.concatenate(cols), np.concatenate(vals)

    def _replace(self, rows, indptr, cols, vals):
        """Check a CSR block for ``rows`` (any order) before anything
        changes, then install it sorted by row, with one copy: one slab
        per run, views of the block.  Returns the per-row element counts
        before and after, in row order."""
        self._check_held(rows)
        rows = np.fromiter(rows, dtype=np.int64)
        ptr = np.asarray(indptr)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if (ptr.shape != (len(rows) + 1,) or ptr[0] != 0 or ptr[-1] != len(cols)
                or (ptr[1:] < ptr[:-1]).any()):
            raise AllocationError(f"{self.name}: indptr does not match rows/cols")
        if len(cols) != len(vals):
            raise AllocationError("cols/vals length mismatch")
        if len(cols):
            self._check_col(int(cols.min()))
            self._check_col(int(cols.max()))
        new = np.diff(ptr).astype(np.int64)
        if (np.diff(rows) <= 0).any():  # gather the block into row order
            order = np.argsort(rows, kind="stable")
            rows, new = rows[order], new[order]
            if (np.diff(rows) == 0).any():
                raise AllocationError(f"{self.name}: a row appears twice in one block")
            idx = np.repeat(ptr[:-1][order] - (np.cumsum(new) - new), new) + np.arange(len(cols))
            cols, vals = cols[idx], vals[idx]
        ivl = IntervalSet(row_runs(rows))
        old = np.diff(self._csr(ivl.spans)[0])
        self._cut(ivl)
        ptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(new, out=ptr[1:])
        cols, vals, pos = cols.astype(np.int32), np.array(vals), 0
        for lo, hi in ivl.spans if len(cols) else ():  # empty rows need no slab
            self._insert_slab(_CSRSlab(lo, hi, ptr[pos: pos + hi - lo + 2], cols, vals))
            pos += hi - lo + 1
        self._version += 1
        return old, new

    # ------------------------------------------------------------------
    # element access
    # ------------------------------------------------------------------
    def get(self, g: int, col: int) -> float:
        self._check_col(col)
        slab, a, b = self._locate(g)
        hit = np.flatnonzero(slab.cols[a:b] == col) if slab is not None else ()
        return float(slab.vals[a + hit[0]]) if len(hit) else 0.0

    def set(self, g: int, col: int, value) -> None:
        """Set element (g, col); appends if absent, removes on 0.0.  An
        overwrite is in place; adding or removing one rebuilds its slab."""
        self._check_col(col)
        slab, a, b = self._locate(g)
        hit = np.flatnonzero(slab.cols[a:b] == col)[:1] if slab is not None else ()
        if len(hit) and value != 0.0:
            slab.vals[a + hit[0]] = value
            self._version += 1
            return
        if not len(hit) and value == 0.0:
            return
        lo, hi, base = (slab.lo, slab.hi, int(slab.indptr[0])) if slab else (g, g, 0)
        ptr, cols, vals = self._csr([(lo, hi)])
        later = np.arange(len(ptr)) > g - lo  # row g's end and every row after
        if len(hit):
            cols, vals = np.delete(cols, a - base + hit), np.delete(vals, a - base + hit)
            ptr -= later
            self.stats.record_free(ELEM_STORE_BYTES)
        else:
            cols, vals = np.insert(cols, b - base, col), np.insert(vals, b - base, value)
            ptr += later
            self.stats.record_alloc(ELEM_STORE_BYTES)
        self._replace(range(lo, hi + 1), ptr, cols, vals)

    def set_row_items(self, g: int, cols: Sequence[int], vals: Sequence[float]) -> None:
        """Replace row ``g`` wholesale (bulk build)."""
        if len(cols) != len(vals):
            raise AllocationError("cols/vals length mismatch")
        old, new = self._replace([g], [0, len(cols)], cols, vals)
        self.stats.record_free(int(old.sum()) * ELEM_STORE_BYTES)
        self.stats.record_alloc(int(new.sum()) * ELEM_STORE_BYTES)

    def set_rows_csr(self, rows: Sequence[int], indptr, cols, vals) -> None:
        """Replace every row of ``rows`` wholesale from one CSR block:
        ``rows[i]`` becomes ``cols/vals[indptr[i]:indptr[i + 1]]``.

        The bulk form of :meth:`set_row_items` — one range check, one
        copy and one accounting step for the whole block, with the
        per-row lists' :class:`AllocStats` traffic (one free and one
        allocation per row installed; an empty incoming row frees what
        the row held).  Everything is checked before anything changes.
        """
        old, new = self._replace(rows, indptr, cols, vals)
        n_installed = int((new > 0).sum())
        n_cleared = int(((new == 0) & (old > 0)).sum())
        self.stats.record_frees(n_installed + n_cleared, int(old.sum()) * ELEM_STORE_BYTES)
        self.stats.record_allocs(n_installed, int(new.sum()) * ELEM_STORE_BYTES)

    def row_items(self, g: int) -> list[tuple[int, float]]:
        slab, a, b = self._locate(g)
        return [] if slab is None else list(zip(slab.cols[a:b].tolist(),
                                                slab.vals[a:b].tolist()))

    def iterator(self, g: Optional[int] = None) -> "SparseIterator":
        """The paper's row iterator; starts at row ``g`` (default:
        first held row)."""
        return SparseIterator(self, g)

    # ------------------------------------------------------------------
    # redistribution support
    # ------------------------------------------------------------------
    def pack(self, rows: Sequence[int]):
        """Pack ``rows`` (any order) into vectors for a single message.

        Returns ``(payload, nbytes)`` where payload is a dict of numpy
        arrays: ``row_ptr`` (int64, len k+1), ``cols`` (int32) and
        ``vals`` (``dtype``) — paper Section 4.4's vectors.
        """
        self._check_held(rows)
        row_ptr, cols, vals = self._csr(row_runs(rows))
        total = int(row_ptr[-1])
        nbytes = (len(row_ptr) - 1) * ROW_WIRE_BYTES + total * ELEM_WIRE_BYTES
        self.stats.record_copy(total * ELEM_WIRE_BYTES)
        vals = vals.astype(self.dtype, copy=False)
        return {"row_ptr": row_ptr, "cols": cols, "vals": vals}, nbytes

    def unpack(self, rows: Sequence[int], payload) -> None:
        """Install a packed payload: one slab per run of ``rows``."""
        if payload is None:
            raise AllocationError(f"{self.name}: sparse unpack needs a payload")
        if len(payload["row_ptr"]) != len(rows) + 1:
            raise AllocationError(f"{self.name}: row_ptr/rows mismatch")
        self.hold(rows)
        self.set_rows_csr(rows, payload["row_ptr"], payload["cols"], payload["vals"])

    # ------------------------------------------------------------------
    # custom-format escape hatch (paper Section 4.4, last paragraph)
    # ------------------------------------------------------------------
    def csr_rows(self, rows: Sequence[int]):
        """A CSR snapshot (indptr, cols, vals) of ``rows``, for fast
        traversal between redistributions.  Check
        :attr:`csr_version` to know when a snapshot is stale."""
        payload, _ = self.pack(rows)
        return payload["row_ptr"], payload["cols"], payload["vals"]

    @property
    def csr_version(self) -> int:
        return self._version

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SparseMatrix {self.name} {self.shape} held={self.n_held}>"


class SparseIterator:
    """The paper's sparse accessor: get-next / set-next / advance-row /
    move-to-first."""

    def __init__(self, matrix: SparseMatrix, row: Optional[int] = None):
        self.matrix = matrix
        held = matrix.held_rows()
        if not held:
            raise AllocationError(f"{matrix.name}: no held rows to iterate")
        self._held = held
        if row is None:
            row = held[0]
        if not matrix.holds(row):
            raise AllocationError(f"{matrix.name}: row {row} is not held locally")
        self._row_pos = held.index(row)
        self._elem_pos = 0

    @property
    def row(self) -> int:
        return self._held[self._row_pos]

    def has_next(self) -> bool:
        """True if the current row has another element."""
        return self._elem_pos < self.matrix.row_nnz(self.row)

    def _at(self, what: str):
        """The current row's slab and the offset ``next()`` reads."""
        slab, a, b = self.matrix._locate(self.row)
        if self._elem_pos >= b - a:
            raise AllocationError(f"iterator exhausted; {what}")
        return slab, a + self._elem_pos

    def next(self) -> tuple[int, float]:
        """Return the next (col, value) of the current row and advance."""
        slab, p = self._at("advance_row or rewind")
        self._elem_pos += 1
        return int(slab.cols[p]), float(slab.vals[p])

    def set_next(self, value: float) -> None:
        """Overwrite the value of the element ``next()`` would return,
        without advancing."""
        slab, p = self._at("nothing to set")
        slab.vals[p] = float(value)
        self.matrix._version += 1

    def advance_row(self) -> bool:
        """Move to the start of the next held row; False at the end."""
        if self._row_pos + 1 >= len(self._held):
            return False
        self._row_pos += 1
        self._elem_pos = 0
        return True

    def rewind(self) -> None:
        """Back to the first element of the first held row."""
        self._row_pos = 0
        self._elem_pos = 0
