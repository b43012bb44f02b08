"""The farm's job tables against the per-job scalar oracle.

``repro.farm.jobs`` prices every job of a run in one vectorised
SplitMix64 pass (``job_costs`` / ``job_results``); the per-job Python
functions they replaced live in ``tests/oracles/farm_jobs.py``.  The
tables must equal the oracle element for element, bit for bit, and a
chunk's ``Compute`` work must be the oracle's left-to-right loop sum —
not a compensated (``sum`` on 3.12, ``math.fsum``) or pairwise
(``np.sum``) one.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.farm import job_costs, job_results, reference_results
from repro.farm.runtime import _chunk_results, _chunk_work
from tests.oracles import farm_jobs as oracle

SKEWS = ("uniform", "linear", "hot")


@given(n_jobs=st.integers(1, 3000), skew=st.sampled_from(SKEWS),
       base=st.floats(0.0, 1e7, allow_nan=False))
@settings(max_examples=150, deadline=None)
def test_job_costs_equal_the_scalar_oracle(n_jobs, skew, base):
    costs = job_costs(n_jobs, base, skew)
    assert costs.dtype == np.float64 and costs.shape == (n_jobs,)
    want = [oracle.job_cost(j, n_jobs, base, skew) for j in range(n_jobs)]
    assert costs.tolist() == want


@pytest.mark.parametrize("skew", SKEWS)
def test_job_costs_single_job(skew):
    # linear divides by max(1, n_jobs - 1): one job costs 0.5 * base
    assert job_costs(1, 1e4, skew).tolist() == [oracle.job_cost(0, 1, 1e4, skew)]


def test_unknown_skew_is_rejected():
    with pytest.raises(ValueError, match="bimodal"):
        job_costs(10, 1e4, "bimodal")


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 + 5, -1])
def test_job_results_equal_the_scalar_oracle(seed):
    got = job_results(700, seed)
    assert got.dtype == np.uint64
    assert got.tolist() == [oracle.job_result(j, seed) for j in range(700)]


@given(n_jobs=st.integers(1, 500), seed=st.integers(-(2**70), 2**70))
@settings(max_examples=150, deadline=None)
def test_job_results_equal_the_oracle_for_any_seed(n_jobs, seed):
    assert job_results(n_jobs, seed).tolist() == [
        oracle.job_result(j, seed) for j in range(n_jobs)]


@given(n_jobs=st.integers(1, 400), seed=st.integers(0, 2**40))
@settings(max_examples=50, deadline=None)
def test_reference_results_equal_the_oracle(n_jobs, seed):
    got = reference_results(n_jobs, seed)
    assert got == oracle.reference_results(n_jobs, seed)
    assert all(type(j) is int and type(r) is int for j, r in got.items())


#: a requeued chunk as the master serves it: out of order, not
#: contiguous; on the linear skew its loop sum differs in the last bits
#: from both a compensated and a pairwise sum
REQUEUED = [275, 1165, 1735, 1643, 1564, 129, 522, 241,
            1014, 1558, 920, 967, 1334, 777, 1615, 429]


def test_chunk_work_is_the_left_to_right_loop_sum():
    n, base = 2000, 1e4
    costs = job_costs(n, base, "linear")
    want = oracle.chunk_work(REQUEUED, n, base, "linear")
    got = _chunk_work(REQUEUED, costs)
    assert type(got) is float
    assert got.hex() == want.hex()
    # the test has teeth: the other two summation orders miss
    assert math.fsum(costs[REQUEUED].tolist()) != want
    assert float(np.sum(costs[REQUEUED])) != want


@given(jobs=st.lists(st.integers(0, 2999), min_size=1, max_size=64),
       skew=st.sampled_from(SKEWS), base=st.floats(1.0, 1e6))
@settings(max_examples=100, deadline=None)
def test_chunk_work_equals_the_oracle_for_any_chunk(jobs, skew, base):
    costs = job_costs(3000, base, skew)
    assert _chunk_work(jobs, costs) == oracle.chunk_work(jobs, 3000, base, skew)


def test_chunk_results_are_python_ints():
    results = job_results(2000, 7)
    done = _chunk_results(REQUEUED, results)
    assert done == [(j, oracle.job_result(j, 7)) for j in REQUEUED]
    assert all(type(r) is int for _, r in done)
