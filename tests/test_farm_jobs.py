"""The farm's data plane against the per-job oracle.

``repro.farm.jobs`` prices every job of a run in one vectorised
SplitMix64 pass (``job_costs`` / ``job_results``), and the master
records DONEs in a completion mask; the per-job Python versions they
replaced live in ``tests/oracles/farm_jobs.py``.  The tables must equal
the oracle element for element, bit for bit; a chunk's ``Compute`` work
must be the oracle's left-to-right loop sum — not a compensated (``sum``
on 3.12, ``math.fsum``) or pairwise (``np.sum``) one; and the mask
merge must agree with the dict merge on any DONE stream.  A memory
guard holds the farm to no per-job Python object.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ClusterSpec
from repro.farm import FarmSpec, job_costs, job_results, reference_results, run_farm
from repro.farm.runtime import FarmResult, _MasterState, _price
from repro.simcluster import Cluster
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


def _chunk_work(jobs, costs):
    return _price(jobs, costs, job_results(len(costs), 0))[0]


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
    # a zero-cost chunk sums to +0.0 from the loop's 0.0, even at -0.0 base
    zero = _chunk_work(range(3), job_costs(3, -0.0, "uniform"))
    assert zero.hex() == oracle.chunk_work(range(3), 3, -0.0, "uniform").hex()


@given(jobs=st.lists(st.integers(0, 2999), min_size=1, max_size=64),
       skew=st.sampled_from(SKEWS), base=st.floats(1.0, 1e6))
@settings(max_examples=100, deadline=None)
def test_chunk_work_equals_the_oracle_for_any_chunk(jobs, skew, base):
    costs = job_costs(3000, base, skew)
    assert _chunk_work(jobs, costs) == oracle.chunk_work(jobs, 3000, base, skew)


def test_done_payload_is_the_chunk_and_its_results():
    costs = job_costs(2000, 1e4, "hot")
    results = job_results(2000, 7)
    results.flags.writeable = False
    # a requeued chunk: its results are a fresh array in chunk order
    _, (jobs, vals) = _price(np.array(REQUEUED), costs, results)
    assert jobs.tolist() == REQUEUED
    assert vals.tolist() == [oracle.job_result(j, 7) for j in REQUEUED]
    # a run: its results are a read-only view of the table
    _, (jobs, vals) = _price(range(40, 56), costs, results)
    assert jobs == range(40, 56)
    assert vals.tolist() == [oracle.job_result(j, 7) for j in range(40, 56)]
    assert np.shares_memory(vals, results) and not vals.flags.writeable


# ----------------------------------------------------------------------
# the master's completion mask against the per-job dict merge
# ----------------------------------------------------------------------

N_MERGE = 64
WORKERS = [1, 2, 3]


@st.composite
def done_streams(draw):
    """DONE reports as the master can see them: runs off the counter or
    the queue, requeued chunks out of order and not contiguous (a job
    may even repeat), single jobs, and the same job reported twice."""
    chunk = st.one_of(
        st.builds(lambda s, k: range(s, min(N_MERGE, s + k)),
                  st.integers(0, N_MERGE - 1), st.integers(1, 16)),
        st.lists(st.integers(0, N_MERGE - 1), min_size=1, max_size=16),
        st.integers(0, N_MERGE - 1).map(lambda j: [j]),
    )
    return draw(st.lists(st.tuples(st.sampled_from(WORKERS), chunk),
                         max_size=30))


@given(stream=done_streams())
@settings(max_examples=300, deadline=None)
def test_mask_merge_equals_the_dict_merge(stream):
    state = _MasterState(FarmSpec(n_jobs=N_MERGE), WORKERS)
    want = oracle.DictMerge(WORKERS)
    for i, (src, chunk) in enumerate(stream):
        jobs = chunk if type(chunk) is range else np.array(chunk, dtype=np.int64)
        # results differ per report, so a later report winning shows
        vals = [(7919 * j + i) % 2**64 for j in chunk]
        state.merge(src, jobs, np.array(vals, dtype=np.uint64))
        want.merge(src, zip(chunk, vals))
    result = FarmResult(spec=None, done=state.done, values=state.values,
                        jobs_done=state.n_done, wall_time=1.0)
    assert result.completed == want.completed
    assert all(type(j) is int and type(r) is int
               for j, r in result.completed.items())
    assert result.jobs_done == len(want.completed)
    assert state.duplicates == want.duplicates
    assert state.per_worker == want.per_worker


def test_completed_is_a_read_only_mapping():
    state = _MasterState(FarmSpec(n_jobs=8), WORKERS)
    state.merge(1, range(2, 5), np.array([20, 30, 40], dtype=np.uint64))
    result = FarmResult(spec=None, done=state.done, values=state.values,
                        jobs_done=state.n_done, wall_time=1.0)
    assert result.completed == {2: 20, 3: 30, 4: 40}
    with pytest.raises(TypeError):
        result.completed[5] = 50


# ----------------------------------------------------------------------
# memory guard: no per-job Python object on the farm's data path
# ----------------------------------------------------------------------

def _static_farm() -> None:
    run_farm(Cluster(ClusterSpec(n_nodes=9, seed=0)),
             FarmSpec(n_jobs=50_000, policy="static", seed=0))


def test_static_farm_peak_bytes_per_job():
    """8 workers take one 6 250-job chunk each.  The per-job tuples, the
    completed dict and the queue list read 221 B per job at peak; the
    job tables, the mask and the digest's packed pairs read 74."""
    _static_farm()  # untraced warm-up: imports and caches
    tracemalloc.start()
    try:
        _static_farm()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 50_000 < 120, f"{peak / 50_000:.0f} B per job"
