"""/PROC-style per-process CPU time accounting (paper Section 4.2).

Real /PROC reports the CPU time a process has actually consumed,
*excluding* time stolen by competing processes — which makes it the
preferred source for unloaded iteration times.  Its drawback is
granularity: the paper cites 10 ms, below which readings are useless
and ``gethrtime`` must be used instead.

:class:`ProcClock` wraps a simulated process's exact ``cpu_time``
counter and quantizes reads to the configured granularity, reproducing
both the virtue and the flaw.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..errors import SimulationError
from ..simcluster.kernel import SimProcess

__all__ = ["ProcClock"]


class ProcClock:
    def __init__(self, proc: SimProcess, granularity: float = 0.010):
        if granularity <= 0:
            raise SimulationError("granularity must be positive")
        self.proc = proc
        self.granularity = granularity

    def read(self) -> float:
        """CPU seconds consumed, rounded down to the granularity."""
        ticks = math.floor(self.proc.cpu_time / self.granularity + 1e-12)
        return ticks * self.granularity

    def deltas(self, cpu_times: Sequence[float]) -> np.ndarray:
        """What consecutive :meth:`read` calls would have returned apart,
        had the process's ``cpu_time`` been ``cpu_times`` at them
        (elementwise the same floats)."""
        ticks = np.floor(np.asarray(cpu_times, dtype=float) / self.granularity + 1e-12)
        return np.diff(ticks * self.granularity)

    def read_exact(self) -> float:
        """The unquantized counter (not available on a real system;
        used only by tests to bound quantization error)."""
        return self.proc.cpu_time
