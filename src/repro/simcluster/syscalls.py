"""Syscall objects yielded by simulated processes.

A simulated process is a Python generator.  It interacts with the
kernel by yielding one of the request objects below; the kernel
performs the request and resumes the generator with the result (if
any).  Higher layers (the MPI library, the Dyn-MPI runtime) are built
from these five primitives:

* :class:`Compute` — consume CPU work units on the owning node.  The
  time this takes depends on the node's speed *and* on competing
  processes sharing the CPU — this is the essence of the non dedicated
  cluster model.
* :class:`ComputeRows` — consume a sequence of per-row work amounts
  back to back, timing every row: the whole chain is one scheduler
  job, not one :class:`Compute` per row.
* :class:`Poll` — busy-wait on the CPU, in fixed-size steps, until a
  signal fires: the whole wait is one scheduler job, not one
  :class:`Compute` per step.
* :class:`Sleep` — advance simulated time without using CPU.
* :class:`Wait` — block until a :class:`~repro.simcluster.kernel.Signal`
  fires; resumes with the fired value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Signal

__all__ = ["Compute", "ComputeRows", "Poll", "Sleep", "Wait", "Syscall"]


class Syscall:
    """Marker base class for kernel requests."""

    __slots__ = ()


@dataclass(frozen=True)
class Compute(Syscall):
    """Consume ``work`` CPU work units on the calling process's node."""

    work: float

    def __post_init__(self) -> None:
        if self.work < 0:
            raise ValueError(f"negative work: {self.work}")


@dataclass(frozen=True)
class ComputeRows(Syscall):
    """Consume ``works[0]``, ``works[1]``, ... work units one row after
    another; resume with ``(stamps, clocks)``: the simulated time and
    the caller's ``cpu_time`` at each of the ``len(works) + 1`` row
    boundaries (the first read at the yield, the last at the resume).

    Semantically a chain of one-row :class:`Compute` requests issued
    back to back, reading the wallclock and the caller's CPU clock at
    every boundary — same CPU contention, same quantum continuation,
    same boundary times and CPU accounting — but the node's CPU runs
    it as a single job (:meth:`~repro.simcluster.cpu.RoundRobinCPU.
    submit_rows`), so alone on its CPU the chain costs O(1) events
    however many rows it has.
    """

    works: Sequence[float]

    def __post_init__(self) -> None:
        works = np.asarray(self.works, dtype=float)
        if works.ndim != 1 or works.size == 0:
            raise ValueError("compute rows needs a non-empty 1-d sequence of work")
        if (works < 0).any():
            raise ValueError(f"negative work: {works.min()}")


@dataclass(frozen=True)
class Poll(Syscall):
    """Spin on the CPU in steps of ``chunk`` work units until ``signal``
    fires; resume (with None) at the end of the step it fired in.

    Semantically a chain of one-step :class:`Compute` requests that
    ends with the first step to finish after the firing — same CPU
    contention, same notice time (the first step end, in CPU time
    consumed by the caller, at or after the firing; at least one step)
    — but the node's CPU runs it as a single *spin job*
    (:meth:`~repro.simcluster.cpu.RoundRobinCPU.stop_spin`), so the
    wait costs O(1) events however long it lasts.
    """

    chunk: float
    signal: "Signal"

    def __post_init__(self) -> None:
        if not self.chunk > 0:
            raise ValueError(f"poll chunk must be positive: {self.chunk}")


@dataclass(frozen=True)
class Sleep(Syscall):
    """Suspend for ``duration`` simulated seconds (no CPU use)."""

    duration: float

    def __post_init__(self) -> None:
        if not self.duration >= 0:  # also rejects NaN
            raise ValueError(f"negative sleep: {self.duration}")


@dataclass(frozen=True)
class Wait(Syscall):
    """Block until ``signal`` fires; resume with its value."""

    signal: "Signal"
