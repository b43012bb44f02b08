"""One-sided RMA tests: op semantics, atomicity, lock epochs (FIFO,
exclusion, shared batching), passive-target costing, dynscope spans,
the dynsan epoch checker (DYN1111/1112/1113), and dead-rank cleanup."""

import numpy as np
import pytest

from repro.config import ClusterSpec, NetworkSpec, NodeSpec
from repro.errors import MPIError, RankFailedError, SanitizerError
from repro.mpi import Window, make_comm, run_spmd
from repro.resilience import FailureScript, TimeFault
from repro.simcluster import Cluster, Compute, Sleep, to_ns, to_s


def make_cluster(n=3, **kw):
    return Cluster(ClusterSpec(
        n_nodes=n,
        node=NodeSpec(speed=1e6),
        network=NetworkSpec(latency=1e-4, bandwidth=1e8,
                            cpu_per_byte=0.001, cpu_per_msg=10.0),
        **kw,
    ))


def idle(ep, h):
    return None
    yield  # pragma: no cover


def run_window(cluster, programs, *, kill=None):
    """Run ``programs[rank](ep, win.origin(rank))`` with ``run_spmd``
    over one 8-slot window; returns (per-rank results, win).  ``kill``
    = ``(rank, t)`` has a ``FailureScript`` kill that rank's node at
    simulated time ``t``."""
    comm = make_comm(cluster)
    win = Window(comm, 8, name="t")
    if kill is not None:
        rank, t = kill
        cluster.install_script(FailureScript(time_faults=[
            TimeFault(time=t, node=comm.node_of(rank), action="kill")]))
    results = run_spmd(cluster, lambda ep: programs[ep.rank](ep, win.origin(ep.rank)),
                       comm=comm)
    return results, win


# ----------------------------------------------------------------------
# op semantics
# ----------------------------------------------------------------------

def test_put_get_accumulate_fetchop_cas():
    cluster = make_cluster(2, sanitize=True)

    def origin(ep, h):
        yield from h.lock(0)
        yield from h.put(0, 2, [5, 6, 7])
        got = yield from h.get(0, 2, count=3)
        assert np.array_equal(got, [5, 6, 7])
        yield from h.accumulate(0, 2, [1, 1, 1])
        assert (yield from h.get(0, 2)) == 6
        old = yield from h.fetch_and_op(0, 0, 10)
        assert old == 0
        old = yield from h.fetch_and_op(0, 0, 10)
        assert old == 10
        # CAS succeeds on match, fails (and reports) on mismatch
        old = yield from h.compare_and_swap(0, 1, 0, 99)
        assert old == 0
        old = yield from h.compare_and_swap(0, 1, 0, 7)
        assert old == 99
        yield from h.unlock(0)
        return True

    def target(ep, h):
        return True
        yield  # pragma: no cover — make it a generator

    results, win = run_window(cluster, [target, origin])
    assert results == [True, True]
    assert int(win.local(0)[0]) == 20
    assert int(win.local(0)[1]) == 99
    assert list(win.local(0)[2:5]) == [6, 7, 8]


def test_ops_cost_simulated_time_and_target_stays_passive():
    cluster = make_cluster(2)

    def origin(ep, h):
        yield from h.lock(0)
        for _ in range(5):
            yield from h.fetch_and_op(0, 0, 1)
        yield from h.unlock(0)

    # the target's program finishes immediately: one-sided ops need
    # only its NIC, not its process
    def target(ep, h):
        return "done"
        yield  # pragma: no cover

    _, win = run_window(cluster, [target, origin])
    assert int(win.local(0)[0]) == 5
    assert cluster.sim.now > 0.0
    # a target CPU that never computes: only the origin node was charged
    assert cluster.nodes[0].cpu.busy_time == 0.0
    assert cluster.nodes[1].cpu.busy_time > 0.0


def test_fetch_and_op_claims_are_disjoint():
    """The farm's core invariant: concurrent fetch_and_op claims under
    shared locks partition the counter range with no gaps or overlap."""
    cluster = make_cluster(5, sanitize=True)
    claims = {}

    def worker(rank):
        def prog(ep, h):
            yield from h.lock(0, shared=True)
            mine = []
            while True:
                start = yield from h.fetch_and_op(0, 0, 3)
                if start >= 30:
                    break
                mine.append(start)
            yield from h.unlock(0)
            claims[rank] = mine
        return prog

    def master(ep, h):
        yield Sleep(0.05)

    run_window(cluster, [master] + [worker(r) for r in range(1, 5)])
    starts = sorted(s for mine in claims.values() for s in mine)
    assert starts == list(range(0, 30, 3))


def test_slot_bounds_and_bad_ranks():
    cluster = make_cluster(2)

    def origin(ep, h):
        yield from h.lock(0)
        with pytest.raises(MPIError, match="outside"):
            yield from h.put(0, 7, [1, 2])
        with pytest.raises(MPIError, match="invalid rank"):
            yield from h.get(5, 0)
        yield from h.unlock(0)

    run_window(cluster, [idle, origin])


def test_bad_rank_is_a_usage_error_under_the_sanitizer():
    """An op on a rank that does not exist is MPIError even with the
    epoch checker armed — it must not be reported as DYN1112 (access
    outside an epoch): nobody can hold a lock on rank 5 of 2."""
    cluster = make_cluster(2, sanitize=True)

    def origin(ep, h):
        yield from h.lock(0)
        for op in (h.get(5, 0), h.put(5, 0, 1.0), h.fetch_and_op(5, 0, 1)):
            with pytest.raises(MPIError, match="invalid rank"):
                yield from op
        yield from h.unlock(0)

    run_window(cluster, [idle, origin])


# ----------------------------------------------------------------------
# lock epochs
# ----------------------------------------------------------------------

def test_exclusive_lock_serializes_epochs():
    cluster = make_cluster(3, sanitize=True)
    order = []

    def contender(rank, hold):
        def prog(ep, h):
            if rank == 2:
                yield Sleep(1e-3)  # rank 1 asks first: FIFO grant order
            yield from h.lock(0)
            order.append(("acq", rank, cluster.sim.now))
            yield Sleep(hold)
            old = yield from h.fetch_and_op(0, 0, 1)
            order.append(("op", rank, old))
            yield from h.unlock(0)
        return prog

    run_window(cluster, [idle, contender(1, 0.02), contender(2, 0.0)])
    kinds = [(k, r) for k, r, _ in order]
    assert kinds == [("acq", 1), ("op", 1), ("acq", 2), ("op", 2)]
    # rank 2's epoch could not begin until rank 1 released
    acq2 = next(t for k, r, t in order if k == "acq" and r == 2)
    assert acq2 >= to_ns(0.02)


def test_shared_locks_coexist_exclusive_waits():
    cluster = make_cluster(4, sanitize=True)
    times = {}

    def reader(rank):
        def prog(ep, h):
            yield from h.lock(0, shared=True)
            times[rank] = cluster.sim.now
            yield Sleep(0.01)
            yield from h.get(0, 0)
            yield from h.unlock(0)
        return prog

    def writer(ep, h):
        yield Sleep(1e-3)  # let both readers in first
        yield from h.lock(0)
        times["writer"] = cluster.sim.now
        yield from h.put(0, 0, 1)
        yield from h.unlock(0)

    run_window(cluster, [idle, reader(1), reader(2), writer])
    # both shared epochs overlapped; the exclusive one waited them out
    assert abs(times[1] - times[2]) < to_ns(5e-3)
    assert times["writer"] >= max(times[1], times[2]) + to_ns(0.01)


# ----------------------------------------------------------------------
# dynsan epoch extension
# ----------------------------------------------------------------------

def test_sanitizer_flags_op_outside_epoch():
    cluster = make_cluster(2, sanitize=True)

    def origin(ep, h):
        yield from h.fetch_and_op(0, 0, 1)

    with pytest.raises(SanitizerError, match="DYN1112"):
        run_window(cluster, [idle, origin])


def test_sanitizer_flags_unpaired_unlock():
    cluster = make_cluster(2, sanitize=True)

    def origin(ep, h):
        yield from h.unlock(0)

    with pytest.raises(SanitizerError, match="DYN1111"):
        run_window(cluster, [idle, origin])


def test_sanitizer_flags_conflicting_lock_acquisition():
    cluster = make_cluster(2, sanitize=True)

    def origin(ep, h):
        yield from h.lock(0)
        yield from h.lock(0)  # same origin, same target, epoch open

    with pytest.raises(SanitizerError, match="DYN1113"):
        run_window(cluster, [idle, origin])


def test_sanitizer_finalize_reports_unclosed_epoch():
    cluster = make_cluster(2, sanitize=True)

    def origin(ep, h):
        yield from h.lock(0)
        yield from h.put(0, 0, 1)  # never unlocked

    with pytest.raises(SanitizerError, match="DYN1111"):
        run_window(cluster, [idle, origin])


def test_sanitizer_clean_run_is_silent():
    cluster = make_cluster(2, sanitize=True)

    def origin(ep, h):
        yield from h.lock(0, shared=True)
        yield from h.fetch_and_op(0, 0, 1)
        yield from h.unlock(0)

    run_window(cluster, [idle, origin])  # no raise


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------

def test_rma_spans_and_counters_recorded():
    cluster = make_cluster(2, observe=True)

    def origin(ep, h):
        yield from h.lock(0)
        yield from h.put(0, 0, [1, 2])
        yield from h.get(0, 0, count=2)
        yield from h.fetch_and_op(0, 2, 4)
        yield from h.unlock(0)

    run_window(cluster, [idle, origin])
    names = [e.name for e in cluster.obs.events if e.cat == "rma"]
    assert "rma.lock" in names
    assert "rma.put" in names
    assert "rma.get" in names
    assert "rma.fetch_and_op" in names
    assert "rma.unlock" in names
    reg = cluster.obs.rank_registry(1)
    assert reg.counter_total("rma.ops") == 3
    assert reg.counter_total("rma.bytes") > 0


# ----------------------------------------------------------------------
# resilience
# ----------------------------------------------------------------------

def test_dead_holder_releases_lock_to_fifo_waiter():
    cluster = make_cluster(3, sanitize=True)
    acquired = []

    def doomed(ep, h):
        yield from h.lock(0)
        yield Sleep(10.0)  # holds the lock until killed at t=0.01
        yield from h.unlock(0)

    def waiter(ep, h):
        yield Sleep(1e-3)  # queue strictly behind the doomed holder
        yield from h.lock(0)
        acquired.append(cluster.sim.now)
        yield from h.fetch_and_op(0, 0, 1)
        yield from h.unlock(0)

    _, win = run_window(cluster, [idle, doomed, waiter], kill=(1, 0.01))
    assert acquired and acquired[0] >= to_ns(0.01)
    assert int(win.local(0)[0]) == 1


@pytest.mark.parametrize("sanitize", [False, True], ids=["plain", "san"])
def test_lock_queued_at_dying_target_raises(sanitize):
    cluster = make_cluster(3, sanitize=sanitize)
    failed = []

    def waiter(ep, h):
        yield Sleep(1e-3)  # queue strictly behind the holder
        with pytest.raises(RankFailedError):
            yield from h.lock(2)
        failed.append(cluster.sim.now)

    def holder(ep, h):
        yield from h.lock(2)
        yield Sleep(0.02)  # the target dies at t=0.01, mid-epoch
        yield from h.unlock(2)

    def target(ep, h):
        yield Sleep(10.0)

    run_window(cluster, [waiter, holder, target], kill=(2, 0.01))
    assert failed == [to_ns(0.01)]


@pytest.mark.parametrize("sanitize", [False, True], ids=["plain", "san"])
def test_lock_request_of_an_origin_dead_in_flight_is_not_granted(sanitize):
    # rank 1 dies at t=60 us, its lock request still on the wire (it
    # lands at ~110 us): granting it left rank 0 locked by a dead rank
    # forever, and rank 2's later lock deadlocked
    cluster = make_cluster(3, sanitize=sanitize)

    def target(ep, h):
        yield Sleep(2.0)

    def doomed(ep, h):
        yield from h.lock(0)
        yield from h.unlock(0)

    def later(ep, h):
        yield Compute(1e6)
        yield from h.lock(0)
        yield from h.fetch_and_op(0, 0, 1)
        yield from h.unlock(0)
        return "locked"

    results, win = run_window(cluster, [target, doomed, later], kill=(1, 60e-6))
    assert results[2] == "locked"
    assert win._locks[0].holders == {} and int(win.local(0)[0]) == 1


@pytest.mark.parametrize("sanitize", [False, True], ids=["plain", "san"])
def test_requests_reaching_dead_target(sanitize):
    # rank 3 dies at t=1.05e-3 with each request below in flight
    cluster = make_cluster(4, sanitize=sanitize)

    def lock(ep, h):
        yield Sleep(1e-3)
        with pytest.raises(RankFailedError):
            yield from h.lock(3, shared=True)
        return "lock"

    def op(ep, h):
        yield from h.lock(3, shared=True)
        yield Sleep(1e-3 - to_s(cluster.sim.now))
        with pytest.raises(RankFailedError):
            yield from h.fetch_and_op(3, 0, 1)
        yield from h.unlock(3)  # the target is dead: returns at once
        return "op"

    def unlock(ep, h):
        yield from h.lock(3, shared=True)
        yield Sleep(1e-3 - to_s(cluster.sim.now))
        yield from h.unlock(3)  # the lock state died with the target
        return "unlock"

    def target(ep, h):
        yield Sleep(10.0)

    results, win = run_window(cluster, [lock, op, unlock, target], kill=(3, 1.05e-3))
    assert results[:3] == ["lock", "op", "unlock"]
    assert int(win.local(3)[0]) == 0


def test_rma_op_on_dead_target_raises():
    cluster = make_cluster(3, sanitize=True)

    def doomed(ep, h):
        yield Sleep(10.0)  # killed at t=0.001

    def origin(ep, h):
        yield Sleep(0.01)  # let the target die first
        with pytest.raises(RankFailedError):
            yield from h.lock(1)
        return "survived"

    results, _ = run_window(cluster, [idle, doomed, origin], kill=(1, 1e-3))
    assert "survived" in results
