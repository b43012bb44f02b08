"""Set-based reference oracle for the interval data plane.

This module preserves the original O(rows·ranks·arrays) row-set
implementation of redistribution planning (and a dict-of-rows storage
stand-in) verbatim, as ground truth:

* property tests (``tests/test_intervals.py``,
  ``tests/test_prop_dmem.py``) check the interval plane row-for-row
  against these functions on randomized bounds/DRSDs;
* ``benchmarks/bench_plan_scaling.py`` times them against the interval
  plane to measure the speedup.

Nothing under ``src/`` imports this module (it lived there as
``repro.core.reference`` until the oracles moved out of the package).
It is deliberately per-row — the DYN401 lint rule that forbids
row-membership loops applies to ``core``/``resilience``, not here.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from repro.errors import RedistributionError

__all__ = [
    "needed_map_sets",
    "owned_rows_set",
    "plan_sends_sets",
    "RowDictStore",
]

Bounds = Sequence[Optional[tuple[int, int]]]


def needed_map_sets(
    phases: Mapping[int, object],
    bounds: Bounds,
    array_rows: Mapping[str, int],
) -> list[dict[str, set]]:
    """The original per-row ``needed_map``: needed[rel][array] is a
    ``set`` of global rows, built by updating one row at a time."""
    n = len(bounds)
    needed: list[dict[str, set]] = [
        {name: set() for name in array_rows} for _ in range(n)
    ]
    for rel in range(n):
        b = bounds[rel]
        if b is None:
            continue
        s, e = b
        for phase in phases.values():
            for acc in phase.accesses:
                n_rows = array_rows.get(acc.array)
                if n_rows is None:
                    raise RedistributionError(
                        f"phase {phase.phase_id} accesses unregistered array "
                        f"{acc.array!r}"
                    )
                needed[rel][acc.array].update(acc.rows_needed(s, e, n_rows))
    return needed


def owned_rows_set(bounds: Bounds, rel: int) -> set:
    """The original ownership expansion: one set element per owned row."""
    b = bounds[rel]
    if b is None:
        return set()
    if isinstance(b, (set, frozenset)):
        return set(b)
    return set(range(b[0], b[1] + 1))


def plan_sends_sets(
    old_bounds: Bounds,
    needed: Sequence[Mapping[str, set]],
    array_names: Sequence[str],
) -> dict:
    """The original send rule evaluated with row sets:
    ``sends[(src, dst)][array]`` = sorted rows ``src`` packs for
    ``dst`` (``needed - dst_old`` intersected with ``src_old``),
    omitting empty transfers."""
    n = len(old_bounds)
    sends: dict = {}
    for src in range(n):
        src_old = owned_rows_set(old_bounds, src)
        if not src_old:
            continue
        for dst in range(n):
            if dst == src:
                continue
            dst_old = owned_rows_set(old_bounds, dst)
            for name in array_names:
                rows = sorted((set(needed[dst][name]) - dst_old) & src_old)
                if rows:
                    sends.setdefault((src, dst), {})[name] = rows
    return sends


class RowDictStore:
    """The original dict-of-rows dense storage: one independently
    allocated numpy buffer per held extended row, packed row by row.

    Mirrors the :class:`~repro.dmem.dense.ProjectedArray` surface the
    property tests and benches exercise (hold/drop/row/pack/unpack/
    retarget) without the allocation accounting."""

    def __init__(self, n_rows: int, row_elems: int, dtype=np.float64):
        self.n_rows = int(n_rows)
        self.row_elems = int(row_elems)
        self.dtype = np.dtype(dtype)
        self.row_nbytes = self.row_elems * self.dtype.itemsize
        self._rows: dict[int, np.ndarray] = {}

    def hold(self, rows) -> int:
        added = 0
        for g in rows:
            if g not in self._rows:
                self._rows[g] = np.zeros(self.row_elems, dtype=self.dtype)
                added += 1
        return added

    def drop(self, rows) -> int:
        dropped = 0
        for g in rows:
            if self._rows.pop(g, None) is not None:
                dropped += 1
        return dropped

    def held_rows(self) -> list:
        return sorted(self._rows)

    def holds(self, g: int) -> bool:
        return g in self._rows

    def row(self, g: int) -> np.ndarray:
        return self._rows[g]

    def pack(self, rows):
        rows = list(rows)
        out = np.empty((len(rows), self.row_elems), dtype=self.dtype)
        for i, g in enumerate(rows):
            out[i] = self._rows[g]
        return out, len(rows) * self.row_nbytes

    def unpack(self, rows, payload) -> None:
        self.hold(rows)
        for i, g in enumerate(rows):
            self._rows[g][:] = payload[i]

    def retarget(self, keep) -> None:
        keep = set(keep)
        self.drop([g for g in self._rows if g not in keep])
