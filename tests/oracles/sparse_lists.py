"""List-of-lists reference oracle for :class:`repro.dmem.SparseMatrix`.

The paper's layout taken literally (Section 4.1.2): each held row is a
Python list of ``[column id, value]`` pairs, packed into vectors for the
wire and unpacked back into lists on receipt (Section 4.4).  This is the
storage ``repro.dmem.sparse`` used before rows moved into CSR slabs, kept
verbatim as ground truth: ``tests/test_sparse.py`` runs random operation
sequences over both and requires equal rows, packed arrays, byte counts
and :class:`~repro.dmem.AllocStats`.  Nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro._intervals import IntervalSet
from repro.dmem import AllocStats
from repro.dmem.sparse import ELEM_STORE_BYTES, ELEM_WIRE_BYTES, ROW_WIRE_BYTES
from repro.errors import AllocationError

__all__ = ["SparseMatrix", "SparseIterator"]

#: shared read-only stand-in for a held row with no elements yet; rows
#: are materialized as real lists only when they gain an element
_EMPTY_ROW: list = []


class SparseMatrix:
    """A distributed sparse matrix, vector of lists of (col, val).

    Row *membership* is interval-indexed (an :class:`IntervalSet` of
    held global rows), so hold/drop/retarget cost O(intervals); the
    per-row element lists — the layout the paper's iterator API and
    automatic redistribution rely on — are materialized lazily, only
    for rows that actually carry elements."""

    def __init__(self, name: str, shape: tuple[int, int], dtype=np.float64):
        n_rows, n_cols = int(shape[0]), int(shape[1])
        if n_rows <= 0 or n_cols <= 0:
            raise AllocationError(f"invalid sparse shape {shape}")
        self.name = name
        self.shape = (n_rows, n_cols)
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.dtype = np.dtype(dtype)
        self.stats = AllocStats()
        self._held = IntervalSet.empty()
        #: materialized rows only (held rows absent here are empty)
        self._rows: dict[int, list[list]] = {}  # g -> [[col, val], ...]
        self._csr_version = 0

    # ------------------------------------------------------------------
    # row lifecycle
    # ------------------------------------------------------------------
    def _check_row(self, g: int) -> None:
        if not (0 <= g < self.n_rows):
            raise AllocationError(f"{self.name}: row {g} out of range [0,{self.n_rows})")

    def _check_col(self, c: int) -> None:
        if not (0 <= c < self.n_cols):
            raise AllocationError(f"{self.name}: column {c} out of range [0,{self.n_cols})")

    def hold(self, rows: Iterable[int]) -> int:
        ivl = IntervalSet.coerce(rows)
        if ivl:
            if ivl.min_row < 0:
                self._check_row(ivl.min_row)
            if ivl.max_row >= self.n_rows:
                self._check_row(ivl.max_row)
        new = ivl - self._held
        if not new:
            return 0
        self._held = self._held | new
        self.stats.record_allocs(len(new), 0)
        self._csr_version += 1
        return len(new)

    def drop(self, rows: Iterable[int]) -> int:
        gone = IntervalSet.coerce(rows) & self._held
        if not gone:
            return 0
        freed = 0
        # element bytes live only in materialized rows; visit whichever
        # side is smaller
        if len(self._rows) <= len(gone):
            hit = [g for g in self._rows if g in gone]
        else:
            hit = [g for g in gone if g in self._rows]
        for g in hit:
            freed += len(self._rows.pop(g)) * ELEM_STORE_BYTES
        self._held = self._held - gone
        self.stats.record_frees(len(gone), freed)
        self._csr_version += 1
        return len(gone)

    def holds(self, g: int) -> bool:
        return g in self._held

    def held_rows(self) -> list[int]:
        return self._held.to_rows()

    def held_intervals(self) -> IntervalSet:
        return self._held

    @property
    def n_held(self) -> int:
        return len(self._held)

    @property
    def held_nbytes(self) -> int:
        return sum(len(r) for r in self._rows.values()) * ELEM_STORE_BYTES

    def row_nnz(self, g: int) -> int:
        return len(self._peek(g))

    def row_wire_nbytes(self, g: int) -> int:
        return ROW_WIRE_BYTES + self.row_nnz(g) * ELEM_WIRE_BYTES

    def _peek(self, g: int) -> list[list]:
        """Read-only view of row ``g``'s element list (the shared empty
        list for held-but-empty rows — never mutate the result)."""
        self._check_row(g)
        if g not in self._held:
            raise AllocationError(f"{self.name}: row {g} is not held locally")
        return self._rows.get(g, _EMPTY_ROW)

    def _row(self, g: int) -> list[list]:
        """Mutable element list of row ``g``, materializing it."""
        self._check_row(g)
        if g not in self._held:
            raise AllocationError(f"{self.name}: row {g} is not held locally")
        return self._rows.setdefault(g, [])

    def _check_held(self, rows) -> None:
        """:meth:`_peek`'s checks for a whole batch of rows at once."""
        missing = IntervalSet.coerce(rows) - self._held
        if missing:
            self._check_row(missing.min_row)
            self._check_row(missing.max_row)
            raise AllocationError(
                f"{self.name}: row {missing.min_row} is not held locally")

    # ------------------------------------------------------------------
    # element access
    # ------------------------------------------------------------------
    def get(self, g: int, col: int) -> float:
        self._check_col(col)
        for c, v in self._peek(g):
            if c == col:
                return v
        return 0.0

    def set(self, g: int, col: int, value) -> None:
        """Set element (g, col); appends if absent, removes on 0.0."""
        self._check_col(col)
        row = self._peek(g)
        for item in row:
            if item[0] == col:
                if value == 0.0:
                    row.remove(item)
                    self.stats.record_free(ELEM_STORE_BYTES)
                else:
                    item[1] = value
                self._csr_version += 1
                return
        if value != 0.0:
            self._row(g).append([col, value])
            self.stats.record_alloc(ELEM_STORE_BYTES)
            self._csr_version += 1

    def set_row_items(self, g: int, cols: Sequence[int], vals: Sequence[float]) -> None:
        """Replace row ``g`` wholesale (bulk build)."""
        if len(cols) != len(vals):
            raise AllocationError("cols/vals length mismatch")
        for c in cols:
            self._check_col(int(c))
        row = self._row(g)
        self.stats.record_free(len(row) * ELEM_STORE_BYTES)
        row.clear()
        for c, v in zip(cols, vals):
            row.append([int(c), float(v)])
        self.stats.record_alloc(len(row) * ELEM_STORE_BYTES)
        self._csr_version += 1

    def set_rows_csr(self, rows: Sequence[int], indptr, cols, vals) -> None:
        """Replace every row of ``rows`` wholesale from one CSR block:
        ``rows[i]`` becomes ``cols/vals[indptr[i]:indptr[i + 1]]``.

        The bulk form of :meth:`set_row_items` — one range check, one
        array-to-list conversion and one accounting step for the whole
        block, with the same :class:`AllocStats` traffic (one free and
        one allocation per row installed).  An empty incoming row only
        clears what the row held; it gets no element list.  Everything
        is checked before anything changes.
        """
        self._check_held(rows)
        rows = list(rows)
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
        ptr = ptr.tolist()
        items = [[c, v] for c, v in zip(cols.tolist(), vals.tolist())]
        n_installed = n_cleared = freed = 0
        for g, a, b in zip(rows, ptr, ptr[1:]):
            old = self._rows.get(g)
            if old:
                freed += len(old)
            if a < b:
                self._rows[g] = items[a:b]
                n_installed += 1
            elif old is not None:
                del self._rows[g]
                n_cleared += bool(old)
        self.stats.record_frees(n_installed + n_cleared, freed * ELEM_STORE_BYTES)
        self.stats.record_allocs(n_installed, len(items) * ELEM_STORE_BYTES)
        self._csr_version += 1

    def row_items(self, g: int) -> list[tuple[int, float]]:
        return [(c, v) for c, v in self._peek(g)]

    def iterator(self, g: Optional[int] = None) -> "SparseIterator":
        """The paper's row iterator; starts at row ``g`` (default:
        first held row)."""
        return SparseIterator(self, g)

    # ------------------------------------------------------------------
    # redistribution support
    # ------------------------------------------------------------------
    def pack(self, rows: Sequence[int]):
        """Pack ``rows`` into vectors for a single message.

        Returns ``(payload, nbytes)`` where payload is a dict of numpy
        arrays: ``row_ptr`` (len k+1), ``cols``, ``vals`` — the
        list-to-vector conversion of paper Section 4.4.
        """
        self._check_held(rows)
        rows = list(rows)
        k = len(rows)
        get = self._rows.get
        lists = [get(g, _EMPTY_ROW) for g in rows]
        row_ptr = np.zeros(k + 1, dtype=np.int64)
        np.cumsum([len(row) for row in lists], out=row_ptr[1:])
        total = int(row_ptr[-1])
        cols = np.fromiter((c for row in lists for c, _ in row),
                           dtype=np.int32, count=total)
        vals = np.fromiter((v for row in lists for _, v in row),
                           dtype=self.dtype, count=total)
        nbytes = k * ROW_WIRE_BYTES + total * ELEM_WIRE_BYTES
        self.stats.record_copy(total * ELEM_WIRE_BYTES)
        return {"row_ptr": row_ptr, "cols": cols, "vals": vals}, nbytes

    def unpack(self, rows: Sequence[int], payload) -> None:
        """Install a packed payload, converting vectors back to lists."""
        if payload is None:
            raise AllocationError(f"{self.name}: sparse unpack needs a payload")
        row_ptr = payload["row_ptr"]
        cols = payload["cols"]
        vals = payload["vals"]
        if len(row_ptr) != len(rows) + 1:
            raise AllocationError(f"{self.name}: row_ptr/rows mismatch")
        self.hold(rows)
        self.set_rows_csr(rows, row_ptr, cols, vals)

    def retarget(self, keep: Iterable[int]) -> None:
        """Drop rows outside ``keep``; pointer-vector rewrite, matching
        :meth:`ProjectedArray.retarget`."""
        keep = IntervalSet.coerce(keep)
        if keep:
            if keep.min_row < 0:
                self._check_row(keep.min_row)
            if keep.max_row >= self.n_rows:
                self._check_row(keep.max_row)
        self.drop(self._held - keep)
        self.stats.record_pointer_moves(self.n_rows)

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
        return self._csr_version

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
        return self._elem_pos < len(self.matrix._peek(self.row))

    def next(self) -> tuple[int, float]:
        """Return the next (col, value) of the current row and advance."""
        row = self.matrix._peek(self.row)
        if self._elem_pos >= len(row):
            raise AllocationError("iterator exhausted; advance_row or rewind")
        c, v = row[self._elem_pos]
        self._elem_pos += 1
        return c, v

    def set_next(self, value: float) -> None:
        """Overwrite the value of the element ``next()`` would return,
        without advancing."""
        row = self.matrix._peek(self.row)
        if self._elem_pos >= len(row):
            raise AllocationError("iterator exhausted; nothing to set")
        row[self._elem_pos][1] = float(value)
        self.matrix._csr_version += 1

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
