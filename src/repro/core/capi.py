"""The paper's C-style API, verbatim (Figure 2 compatibility layer).

Programs can be written against the exact names the paper uses —
``DMPI_init``, ``DMPI_register_dense_array``, ``DMPI_get_start_iter``,
``DMPI_participating``, ``DMPI_Send`` … — bound to a rank's
:class:`~repro.core.runtime.DynMPI` context through :class:`DMPI`.
This exists so the paper's Figure 2 program transliterates one-to-one
(see ``tests/test_capi.py`` for that exact program); new code should
prefer the Pythonic :class:`DynMPI` methods.

Constants mirror the paper's:

* ``DMPI_BLOCK`` / ``DMPI_CYCLIC`` — distribution selectors;
* ``DMPI_READ`` / ``DMPI_WRITE`` / ``DMPI_READWRITE`` — access modes;
* ``DMPI_NEAREST_NEIGHBOR`` / ``DMPI_ALLGATHER`` /
  ``DMPI_ALLREDUCE`` — phase communication patterns.
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from ..errors import RegistrationError
from .commcost import NearestNeighbor, NoComm, RingAllgather, ScalarAllreduce
from .drsd import AccessMode
from .runtime import DynMPI

__all__ = [
    "DMPI",
    "DMPI_BLOCK",
    "DMPI_CYCLIC",
    "DMPI_READ",
    "DMPI_WRITE",
    "DMPI_READWRITE",
    "DMPI_NEAREST_NEIGHBOR",
    "DMPI_ALLGATHER",
    "DMPI_ALLREDUCE",
    "DMPI_NOCOMM",
]

DMPI_BLOCK = "block"
DMPI_CYCLIC = "cyclic"
DMPI_READ = AccessMode.READ
DMPI_WRITE = AccessMode.WRITE
DMPI_READWRITE = AccessMode.READWRITE
DMPI_NEAREST_NEIGHBOR = "nearest_neighbor"
DMPI_ALLGATHER = "allgather"
DMPI_ALLREDUCE = "allreduce"
DMPI_NOCOMM = "nocomm"


class DMPI:
    """Paper-named wrapper around one rank's :class:`DynMPI` context."""

    def __init__(self, ctx: DynMPI):
        self.ctx = ctx
        self._n_procs: Optional[int] = None
        self._distribution = DMPI_BLOCK
        self._pending_phase_pattern: dict[int, str] = {}

    # -- DMPI_init(num_processors, num_phases, num_arrays, distribution)
    def DMPI_init(self, num_processors: int, num_phases: int,
                  num_arrays: int, distribution: str = DMPI_BLOCK) -> None:
        if num_processors != self.ctx.ep.size:
            raise RegistrationError(
                f"DMPI_init expected {self.ctx.ep.size} processors, "
                f"got {num_processors}"
            )
        if distribution not in (DMPI_BLOCK, DMPI_CYCLIC):
            raise RegistrationError(f"unknown distribution {distribution!r}")
        if distribution == DMPI_CYCLIC:
            raise RegistrationError(
                "the runtime redistributes block distributions only"
            )
        self._distribution = distribution
        self._declared = (num_phases, num_arrays)

    # -- DMPI_register_dense_array(name, &ptr, lo, hi, elem_size, type)
    def DMPI_register_dense_array(self, name: str, lo: int, hi: int,
                                  row_elems: int = 1, dtype=np.float64,
                                  materialized: bool = True):
        n_rows = hi - lo + 1
        shape = (n_rows, row_elems) if row_elems > 1 else (n_rows,)
        return self.ctx.register_dense(name, shape, dtype,
                                       materialized=materialized)

    def DMPI_register_sparse_array(self, name: str, n_rows: int,
                                   n_cols: int, dtype=np.float64):
        return self.ctx.register_sparse(name, (n_rows, n_cols), dtype)

    # -- DMPI_init_phase(lo, hi, pattern)
    def DMPI_init_phase(self, phase_id: int, lo: int, hi: int,
                        pattern: str = DMPI_NEAREST_NEIGHBOR,
                        row_nbytes: int = 8, total_nbytes: int = 0) -> None:
        n_iters = hi - lo + 1
        if pattern == DMPI_NEAREST_NEIGHBOR:
            pat = NearestNeighbor(row_nbytes=row_nbytes)
        elif pattern == DMPI_ALLGATHER:
            pat = RingAllgather(total_nbytes=total_nbytes or n_iters * 8)
        elif pattern == DMPI_ALLREDUCE:
            pat = ScalarAllreduce()
        elif pattern == DMPI_NOCOMM:
            pat = NoComm()
        else:
            raise RegistrationError(f"unknown phase pattern {pattern!r}")
        self.ctx.init_phase(phase_id, n_iters, pat)

    # -- DMPI_add_array_access(name, mode, coeff, offset)
    def DMPI_add_array_access(self, phase_id: int, name: str, mode: str,
                              lo_off: int = 0, hi_off: int = 0,
                              step: int = 1) -> None:
        self.ctx.add_array_access(phase_id, name, mode, lo_off, hi_off, step)

    def DMPI_commit(self) -> None:
        self.ctx.commit()

    # -- per-cycle queries ------------------------------------------------
    def DMPI_get_start_iter(self) -> int:
        return self.ctx.start_iter()

    def DMPI_get_end_iter(self) -> int:
        return self.ctx.end_iter()

    def DMPI_participating(self) -> bool:
        return self.ctx.participating()

    def DMPI_get_rel_rank(self, world_rank: Optional[int] = None) -> int:
        if world_rank is not None and world_rank != self.ctx.world_rank:
            return self.ctx.active_group.rel(world_rank)
        return self.ctx.rel_rank()

    def DMPI_get_num_active(self) -> int:
        return self.ctx.num_active()

    # -- cycle brackets ----------------------------------------------------
    def DMPI_begin_cycle(self) -> Generator:
        yield from self.ctx.begin_cycle()

    def DMPI_end_cycle(self) -> Generator:
        yield from self.ctx.end_cycle()

    def DMPI_compute(self, phase_id: int, work_of_rows,
                     exec_rows=None, rows=None) -> Generator:
        """:meth:`DynMPI.compute`: ``exec_rows(s, e)`` runs once per
        call, with the call's whole range."""
        yield from self.ctx.compute(phase_id, work_of_rows, exec_rows, rows)

    # -- communication on relative ranks ------------------------------------
    def DMPI_Send(self, payload, dest_rel: int, tag: int = 0,
                  nbytes: Optional[int] = None) -> Generator:
        yield from self.ctx.send_rel(dest_rel, tag, payload, nbytes)

    def DMPI_Recv(self, source_rel: int, tag: int = 0) -> Generator:
        result = yield from self.ctx.recv_rel(source_rel, tag)
        return result

    def DMPI_Allreduce(self, value, op=None) -> Generator:
        from ..mpi.datatypes import SUM

        result = yield from self.ctx.allreduce_active(value, op or SUM)
        return result

    # -- sparse accessors (paper Section 2.2) --------------------------------
    def DMPI_sparse_iterator(self, name: str, row: Optional[int] = None):
        return self.ctx.arrays[name].iterator(row)
