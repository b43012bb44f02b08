"""/PROC-style per-process CPU time accounting (paper Section 4.2).

Real /PROC reports the CPU time a process has actually consumed,
*excluding* time stolen by competing processes — which makes it the
preferred source for unloaded iteration times.  Its drawback is
granularity: the paper cites 10 ms, below which readings are useless
and ``gethrtime`` must be used instead.

:class:`ProcClock` wraps a simulated process's exact ``cpu_time``
counter (ns) and quantizes reads to whole ticks of the configured
granularity, reproducing both the virtue and the flaw.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import SimulationError
from ..simcluster.kernel import SimProcess, to_ns

__all__ = ["ProcClock"]


class ProcClock:
    def __init__(self, proc: SimProcess, granularity: float = 0.010):
        if granularity <= 0:
            raise SimulationError("granularity must be positive")
        self.proc = proc
        self.granularity = granularity
        self._tick = to_ns(granularity)

    def read(self) -> float:
        """CPU seconds consumed, rounded down to the granularity."""
        return self.proc.cpu_time // self._tick * self.granularity

    def deltas(self, cpu_times: Sequence[int]) -> np.ndarray:
        """What consecutive :meth:`read` calls would have returned apart,
        had the process's ``cpu_time`` been ``cpu_times`` (ns) at them
        (elementwise the same floats)."""
        ticks = np.asarray(cpu_times, dtype=np.int64) // self._tick
        return np.diff(ticks * self.granularity)
