"""Unloaded iteration-time estimation during the grace period
(paper Section 4.2).

During the grace period the runtime times every owned iteration each
cycle, through *both* sources:

* /PROC — per-iteration CPU-time deltas, quantized to the /PROC
  granularity.  Immune to competing processes, useless below 10 ms.
* ``gethrtime`` — exact wallclock intervals, polluted by competing
  slices; the per-iteration **minimum** over the grace cycles discards
  the context-switch spikes.

``estimate`` applies the paper's selection rule: use /PROC when the
iterations are big enough (median at or above the threshold),
otherwise the min-filtered wallclock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from ..errors import SimulationError
from ..simcluster import ComputeRows
from ..sysmon import HrTimer, ProcClock
from ..sysmon.hrtimer import min_filter

__all__ = ["HRTIMER_THRESHOLD", "GraceSamples", "estimate_unloaded_times",
           "timed_rows"]

#: median iteration time below which gethrtime is used instead of
#: /PROC (paper: 10 ms, the /PROC granularity)
HRTIMER_THRESHOLD = 0.010


def timed_rows(hr: HrTimer, clock: ProcClock, works: np.ndarray) -> Generator:
    """Charge ``works`` one row at a time, reading ``gethrtime`` and
    /PROC around every row; returns ``(hr intervals, /PROC deltas)``,
    one of each per row.  The rows are one ``ComputeRows`` request: a
    single CPU job however many rows there are."""
    stamps, clocks = yield ComputeRows(works)
    return hr.intervals(stamps), clock.deltas(clocks)


@dataclass
class GraceSamples:
    """Per-grace-cycle, per-owned-iteration measurements."""

    rows: list  # owned global row indices (same every grace cycle)
    hr: list    # list over cycles of np.ndarray wallclock intervals
    proc: list  # list over cycles of np.ndarray /PROC deltas (quantized)

    def __init__(self, rows):
        self.rows = list(rows)
        self.hr = []
        self.proc = []

    def add_cycle(self, hr_intervals, proc_deltas) -> None:
        hr_arr = np.asarray(hr_intervals, dtype=float)
        proc_arr = np.asarray(proc_deltas, dtype=float)
        if hr_arr.shape != (len(self.rows),) or proc_arr.shape != (len(self.rows),):
            raise SimulationError("grace sample shape mismatch")
        self.hr.append(hr_arr)
        self.proc.append(proc_arr)

    @property
    def n_cycles(self) -> int:
        return len(self.hr)


def estimate_unloaded_times(samples: GraceSamples) -> tuple[np.ndarray, str]:
    """Per-owned-iteration unloaded time estimates (seconds).

    Returns ``(estimates, source)`` where source is "proc" or
    "hrtimer".  An empty row set returns an empty estimate.
    """
    if not samples.rows:
        return np.zeros(0), "none"
    if samples.n_cycles == 0:
        raise SimulationError("no grace cycles collected")

    hr_min = min_filter(samples.hr)
    median_iter = float(np.median(hr_min))
    if median_iter >= HRTIMER_THRESHOLD:
        # /PROC: average the quantized deltas over cycles; quantization
        # noise is zero-mean at this scale
        est = np.mean(np.stack(samples.proc), axis=0)
        # guard: a pathological all-zero /PROC readout (every iteration
        # below granularity despite the median test) falls back
        if est.sum() > 0:
            return est, "proc"
    return hr_min, "hrtimer"
