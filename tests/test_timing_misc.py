"""Unit tests for grace-period timing (GraceSamples + estimation),
load monitoring, phase descriptors, and datatype helpers."""

import numpy as np
import pytest

from repro.core import GraceSamples, Phase, estimate_unloaded_times
from repro.core.commcost import NearestNeighbor
from repro.core.drsd import DRSD, AccessMode
from repro.errors import RegistrationError, SimulationError
from repro.mpi.datatypes import LAND, LOR, MAX, MIN, PROD, SUM, payload_nbytes
from repro.mpi.status import ANY_SOURCE, ANY_TAG, Status


# ----------------------------------------------------------------------
# GraceSamples / estimate_unloaded_times
# ----------------------------------------------------------------------
def test_grace_samples_shape_checked():
    gs = GraceSamples([3, 4, 5])
    gs.add_cycle([1.0, 1.0, 1.0], [0.01, 0.01, 0.01])
    with pytest.raises(SimulationError):
        gs.add_cycle([1.0], [0.01])
    assert gs.n_cycles == 1


def test_estimate_prefers_proc_for_big_iterations():
    gs = GraceSamples([0, 1])
    for _ in range(3):
        gs.add_cycle([0.05, 0.06], [0.05, 0.06])
    est, source = estimate_unloaded_times(gs)
    assert source == "proc"
    assert np.allclose(est, [0.05, 0.06])


def test_estimate_uses_hrtimer_below_threshold():
    gs = GraceSamples([0, 1])
    gs.add_cycle([0.002, 0.012], [0.0, 0.01])  # median 7ms < 10ms
    gs.add_cycle([0.002, 0.003], [0.0, 0.0])
    est, source = estimate_unloaded_times(gs)
    assert source == "hrtimer"
    # per-iteration minimum across cycles
    assert np.allclose(est, [0.002, 0.003])


def test_estimate_proc_all_zero_falls_back_to_hrtimer():
    gs = GraceSamples([0])
    gs.add_cycle([0.05], [0.0])  # /PROC read nothing despite big iters
    est, source = estimate_unloaded_times(gs)
    assert source == "hrtimer"
    assert est[0] == pytest.approx(0.05)


def test_estimate_empty_rows():
    est, source = estimate_unloaded_times(GraceSamples([]))
    assert est.size == 0 and source == "none"


def test_estimate_no_cycles_raises():
    with pytest.raises(SimulationError):
        estimate_unloaded_times(GraceSamples([0]))


# ----------------------------------------------------------------------
# Phase
# ----------------------------------------------------------------------
def test_phase_validation_and_queries():
    ph = Phase(1, 100, NearestNeighbor(row_nbytes=8))
    ph.add_access(DRSD("A", AccessMode.WRITE))
    ph.add_access(DRSD("B", AccessMode.READ, -1, 1))
    ph.add_access(DRSD("A", AccessMode.READ))
    assert ph.arrays() == ["A", "B"]
    assert len(ph.accesses_of("A")) == 2
    with pytest.raises(RegistrationError):
        Phase(2, 0, NearestNeighbor(row_nbytes=8))
    with pytest.raises(RegistrationError):
        Phase(3, 10, "not a pattern")


# ----------------------------------------------------------------------
# datatypes
# ----------------------------------------------------------------------
def test_payload_nbytes_numpy_exact():
    arr = np.zeros(100, dtype=np.float64)
    assert payload_nbytes(arr) == 64 + 800


def test_payload_nbytes_orderings():
    small = payload_nbytes(1)
    assert payload_nbytes(None) < small
    assert payload_nbytes([1] * 100) > payload_nbytes([1] * 10)
    assert payload_nbytes({"a": 1, "b": 2}) > payload_nbytes({"a": 1})
    assert payload_nbytes(b"x" * 50) == 64 + 50
    assert payload_nbytes("hello") == 64 + 5
    assert payload_nbytes(object()) > 64


def test_reduce_ops_scalars():
    assert SUM(2, 3) == 5
    assert MAX(2, 3) == 3
    assert MIN(2, 3) == 2
    assert PROD(2, 3) == 6
    assert LAND(True, False) is False
    assert LOR(True, False) is True


def test_reduce_ops_arrays():
    a, b = np.array([1.0, 5.0]), np.array([4.0, 2.0])
    assert np.array_equal(MAX(a, b), [4.0, 5.0])
    assert np.array_equal(MIN(a, b), [1.0, 2.0])
    assert np.array_equal(SUM(a, b), [5.0, 7.0])
    assert np.array_equal(LAND(np.array([1, 0]), np.array([1, 1])),
                          [True, False])


def test_status_matching():
    st = Status(source=3, tag=7, nbytes=10)
    assert st.matches(3, 7)
    assert st.matches(ANY_SOURCE, 7)
    assert st.matches(3, ANY_TAG)
    assert st.matches(ANY_SOURCE, ANY_TAG)
    assert not st.matches(2, 7)
    assert not st.matches(3, 8)
