"""Oracle: the grace period's per-row timing as a chain of one-row computes.

Until the ``ComputeRows`` syscall, ``DynMPI.compute`` timed every row of
a grace-period cycle with its own ``Compute`` and a ``gethrtime`` +
/PROC read on each side — two events per row on an idle CPU, three on a
loaded one.  The row-chain job that replaced it must be
indistinguishable from that loop in everything but event count; this
module preserves the loop **verbatim** so the property suite can run
both on the same scheduler.  Do not "optimise" it.

:func:`row_loop` is the old loop, a drop-in for
:func:`repro.core.timing.timed_rows`; ``with per_row_grace(): ...``
routes every grace-period ``compute()`` through it.
"""

from __future__ import annotations

import contextlib
from typing import Generator

import numpy as np

from repro.core import runtime
from repro.simcluster import Compute

__all__ = ["row_loop", "per_row_grace"]


def row_loop(hr, pc, works) -> Generator:
    n_rows = len(works)
    hr_row = np.empty(n_rows)
    proc_row = np.empty(n_rows)
    for i in range(n_rows):
        t0h, t0p = hr.read(), pc.read()
        yield Compute(float(works[i]))
        t1h, t1p = hr.read(), pc.read()
        hr_row[i] = hr.interval(t0h, t1h)
        proc_row[i] = t1p - t0p
    return hr_row, proc_row


@contextlib.contextmanager
def per_row_grace():
    """Time every grace-period row through the old loop."""
    chain = runtime.timed_rows
    runtime.timed_rows = row_loop
    try:
        yield
    finally:
        runtime.timed_rows = chain
