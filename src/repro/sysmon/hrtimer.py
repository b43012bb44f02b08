"""``gethrtime``-style wallclock timing (paper Section 4.2).

A high-resolution wallclock read is exact, but the *interval* between
two reads around a piece of work includes any time the OS gave to
other processes — on a loaded node, a sub-quantum iteration either
completes unpreempted (true time) or absorbs one or more competing
slices (inflated time).  The paper's fix is to measure over several
phase-cycle iterations and take the **minimum**.

:class:`HrTimer` reads the simulator clock (plus a tiny fixed call
overhead); :func:`min_filter` implements the minimum-over-cycles
reduction used during the grace period.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import SimulationError
from ..simcluster import Simulator

__all__ = ["HrTimer", "min_filter"]

#: seconds of overhead per gethrtime() call pair (nanoseconds-scale on
#: real hardware; kept tiny but nonzero so timing is never "free")
CALL_OVERHEAD = 2e-7


class HrTimer:
    def __init__(self, sim: Simulator):
        self.sim = sim

    def read(self) -> float:
        return self.sim.now

    def interval(self, t0: float, t1: float) -> float:
        if t1 < t0:
            raise SimulationError("hrtimer interval ran backwards")
        return (t1 - t0) + CALL_OVERHEAD

    def intervals(self, stamps: Sequence[float]) -> np.ndarray:
        """:meth:`interval` between each pair of consecutive reads
        ``stamps`` (elementwise the same floats)."""
        gaps = np.diff(np.asarray(stamps, dtype=float))
        if (gaps < 0).any():
            raise SimulationError("hrtimer interval ran backwards")
        return gaps + CALL_OVERHEAD


def min_filter(samples: Sequence[Sequence[float]]) -> np.ndarray:
    """Per-iteration minimum across grace-period cycles.

    ``samples[c][i]`` is the measured time of iteration ``i`` during
    grace cycle ``c``; the result is the per-iteration minimum, which
    discards context-switch spikes (paper Section 4.2).
    """
    if not samples:
        raise SimulationError("min_filter needs at least one cycle of samples")
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2:
        raise SimulationError("samples must be a cycle x iteration matrix")
    return arr.min(axis=0)
