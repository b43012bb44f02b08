"""Tests for relative power, the comm cost model, and the balancers
(naive / closed-form / successive balancing)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ClusterSpec, NetworkSpec, NodeSpec, pentium_cluster
from repro.core.balance import (
    closed_form_shares,
    comm_terms,
    predict_times,
    successive_balance,
)
from repro.core.commcost import (
    CommCostModel,
    NearestNeighbor,
    NoComm,
    RingAllgather,
    ScalarAllreduce,
    measure_comm_model,
)
from repro.core.power import available_powers, naive_shares
from repro.errors import DistributionError
from repro.mpi import run_spmd
from repro.simcluster import Cluster


def model(cpu_msg=1e-5, cpu_byte=4e-9, wire_msg=75e-6, wire_byte=8e-8, speed=1e8):
    return CommCostModel(cpu_msg, cpu_byte, wire_msg, wire_byte, speed)


# ----------------------------------------------------------------------
# power
# ----------------------------------------------------------------------
def test_available_powers():
    p = available_powers([100.0, 100.0], [1, 2])
    assert np.allclose(p, [100.0, 50.0])
    # load zero is clamped to 1 (the app always counts)
    p = available_powers([100.0], [0])
    assert np.allclose(p, [100.0])


def test_naive_shares_proportional():
    s = naive_shares([100.0, 50.0, 50.0])
    assert np.allclose(s, [0.5, 0.25, 0.25])
    with pytest.raises(DistributionError):
        naive_shares([])
    with pytest.raises(DistributionError):
        naive_shares([0.0, 0.0])


def test_paper_cg_naive_shares():
    """One competing process on one of four nodes: relative powers
    1,1,1,1/2 -> shares 2/7,2/7,2/7,1/7 (the paper's CG distribution)."""
    p = available_powers([1.0] * 4, [1, 1, 1, 2])
    s = naive_shares(p)
    assert np.allclose(s, [2 / 7, 2 / 7, 2 / 7, 1 / 7])


# ----------------------------------------------------------------------
# comm cost model
# ----------------------------------------------------------------------
def test_from_spec_matches_network():
    spec = pentium_cluster(2)
    m = CommCostModel.from_spec(spec.network, spec.node.speed)
    assert m.wire_msg_s == spec.network.latency
    assert m.wire_byte_s == pytest.approx(1.0 / spec.network.bandwidth)
    assert m.cpu_work(1000, 1) == pytest.approx(
        spec.network.cpu_per_msg + 1000 * spec.network.cpu_per_byte
    )


def test_measured_model_close_to_oracle():
    """The simulated micro-benchmark must recover the specs it ran on."""
    spec = pentium_cluster(2)
    fit = measure_comm_model(spec, sizes=(32768, 65536, 131072, 262144), reps=4)
    oracle = CommCostModel.from_spec(spec.network, spec.node.speed)
    assert fit.cpu_byte_s == pytest.approx(oracle.cpu_byte_s, rel=0.1)
    assert fit.wire_byte_s == pytest.approx(oracle.wire_byte_s, rel=0.15)
    # per-message terms are small and noisier; just require same scale
    assert fit.cpu_msg_s < 10 * oracle.cpu_msg_s + 1e-4


def test_halo_exchange_cpu_per_message_matches_the_fitted_model():
    """The planner's per-message CPU is fitted on the path the apps
    take: on a 4-rank isend/recv halo exchange every rank's CPU per
    message side (each send and each receive) is what the fit says."""
    spec = pentium_cluster(4)
    nbytes, iters = 8192, 6
    fit = measure_comm_model(spec, sizes=(1024, 8192, 65536), reps=4)
    cluster = Cluster(spec)

    def program(ep):
        peers = [p for p in (ep.rank - 1, ep.rank + 1) if 0 <= p < ep.size]
        for _ in range(iters):
            reqs = []
            for p in peers:
                reqs.append((yield from ep.isend(p, tag=0, nbytes=nbytes)))
            for p in peers:
                yield from ep.recv(p, tag=0)
            for req in reqs:
                yield from req.wait()

    run_spmd(cluster, program)
    per_side = fit.cpu_work(nbytes) / spec.node.speed
    for p in cluster.sim.processes:
        rank = int(p.name[len("rank"):])
        sides = 2 * iters * (1 if rank in (0, 3) else 2)
        assert p.cpu_time / sides == pytest.approx(per_side, rel=0.05), p.name


def test_nearest_neighbor_edges_cheaper():
    m = model()
    pat = NearestNeighbor(row_nbytes=16384)
    counts = [10, 10, 10, 10]
    cpu, _ = pat.comm_cost_all(4, counts, m)
    cpu_edge, cpu_mid = cpu[0], cpu[1]
    assert cpu_mid == pytest.approx(2 * cpu_edge)


def test_nearest_neighbor_single_node_free():
    m = model()
    pat = NearestNeighbor(row_nbytes=16384)
    cpu, wire = pat.comm_cost_all(1, [10], m)
    assert (cpu[0], wire[0]) == (0.0, 0.0)


def test_ring_allgather_scales_with_n():
    m = model()
    pat = RingAllgather(total_nbytes=1 << 20)
    cpu4 = pat.comm_cost_all(4, [1] * 4, m)[0][0]
    cpu8 = pat.comm_cost_all(8, [1] * 8, m)[0][0]
    assert cpu8 > cpu4  # more foreign data to ingest


def test_scalar_allreduce_log_rounds():
    m = model()
    pat = ScalarAllreduce(count=2)
    cpu2 = pat.comm_cost_all(2, [1, 1], m)[0][0]
    cpu16 = pat.comm_cost_all(16, [1] * 16, m)[0][0]
    assert cpu16 == pytest.approx(4 * cpu2)  # log2 16 / log2 2 = 4


# ----------------------------------------------------------------------
# balancers
# ----------------------------------------------------------------------
def test_closed_form_no_comm_equals_naive():
    avails = np.array([100.0, 50.0, 25.0])
    res = closed_form_shares(1000.0, avails, [NoComm()], model(), n_rows=100)
    assert np.allclose(res.shares, naive_shares(avails), atol=1e-9)
    # equal predicted times
    assert np.ptp(res.predicted_times) < 1e-9


def test_closed_form_with_comm_shifts_work_off_loaded_node():
    """With communication consuming CPU, the loaded (weak) node must
    get *less* than its naive relative-power share."""
    avails = np.array([100e6, 100e6, 100e6, 50e6])
    pat = NearestNeighbor(row_nbytes=1 << 14)
    res = closed_form_shares(20e6, avails, [pat], model(), n_rows=2048)
    naive = naive_shares(avails)
    assert res.shares[3] < naive[3]
    assert res.shares.sum() == pytest.approx(1.0)
    # per-node times equalized
    assert np.ptp(res.predicted_times) / res.predicted_times.max() < 0.05


def test_closed_form_clamps_hopeless_node_to_zero():
    """If a node is so slow that its equal-time share is negative, it
    gets zero work (the precursor of node removal)."""
    avails = np.array([100e6, 100e6, 0.5e4])
    pat = NearestNeighbor(row_nbytes=1 << 18)
    res = closed_form_shares(1e6, avails, [pat], model(), n_rows=100000)
    assert res.shares[2] == 0.0
    assert res.shares.sum() == pytest.approx(1.0)


def test_successive_balance_converges_to_closed_form():
    avails = np.array([100e6, 100e6, 100e6, 50e6])
    loads = np.array([1, 1, 1, 2])
    pat = NearestNeighbor(row_nbytes=1 << 15)
    sb = successive_balance(30e6, avails, loads, [pat], model(), n_rows=2048)
    cf = closed_form_shares(30e6, avails, [pat], model(), n_rows=2048)
    assert np.allclose(sb.shares, cf.shares, atol=5e-3)
    assert sb.rounds >= 1


def test_successive_balance_no_loaded_nodes_falls_back():
    avails = np.array([100.0, 100.0])
    res = successive_balance(100.0, avails, [1, 1], [NoComm()], model(), n_rows=10)
    assert np.allclose(res.shares, [0.5, 0.5])
    assert res.rounds == 0


def test_successive_balance_all_loaded_falls_back():
    avails = np.array([50.0, 25.0])
    res = successive_balance(100.0, avails, [2, 3], [NoComm()], model(), n_rows=10)
    assert np.allclose(res.shares, naive_shares(avails), atol=1e-9)


def test_successive_balance_paper_4node_cg_shape():
    """Roughly the paper's 4-node CG: loaded node ends up at or below
    1/7 of the work once comm CPU is accounted."""
    speed = 1.1e8
    avails = np.array([speed, speed, speed, speed / 2])
    loads = np.array([1, 1, 1, 2])
    pats = [RingAllgather(total_nbytes=14000 * 8), ScalarAllreduce(count=3)]
    res = successive_balance(
        speed * 0.30, avails, loads, pats,
        CommCostModel.from_spec(pentium_cluster(4).network, speed),
        n_rows=14000,
    )
    assert res.shares[3] <= 1 / 7 + 0.01
    assert res.shares[:3].min() > 0.25


def test_predict_times_monotone_in_share():
    avails = np.array([100.0, 100.0])
    t1 = predict_times([0.5, 0.5], 100.0, avails, [NoComm()], model(), 10)
    t2 = predict_times([0.8, 0.2], 100.0, avails, [NoComm()], model(), 10)
    assert t2[0] > t1[0] and t2[1] < t1[1]


def test_balance_validation():
    with pytest.raises(DistributionError):
        closed_form_shares(0.0, [1.0], [NoComm()], model(), 10)
    with pytest.raises(DistributionError):
        closed_form_shares(10.0, [-1.0], [NoComm()], model(), 10)
    with pytest.raises(DistributionError):
        successive_balance(10.0, [1.0, 1.0], [1], [NoComm()], model(), 10)


@given(
    n=st.integers(2, 8),
    loaded_count=st.integers(1, 3),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_successive_balance_invariants(n, loaded_count, data):
    loaded_count = min(loaded_count, n - 1)
    loads = np.ones(n, dtype=int)
    idx = data.draw(
        st.lists(st.integers(0, n - 1), min_size=loaded_count,
                 max_size=loaded_count, unique=True)
    )
    for i in idx:
        loads[i] = data.draw(st.integers(2, 4))
    avails = available_powers([100e6] * n, loads)
    pat = NearestNeighbor(row_nbytes=4096)
    res = successive_balance(30e6, avails, loads, [pat], model(), n_rows=1024)
    # shares form a distribution
    assert res.shares.sum() == pytest.approx(1.0)
    assert np.all(res.shares >= 0)
    # every loaded node gets at most what any unloaded node gets
    u = [r for r in range(n) if loads[r] == 1]
    for l in idx:
        assert res.shares[l] <= res.shares[u[0]] + 1e-9
    # prediction is no worse than naive's prediction
    t_sb = res.predicted_times.max()
    t_naive = predict_times(
        naive_shares(avails), 30e6, avails, [pat], model(), 1024
    ).max()
    assert t_sb <= t_naive * 1.02