"""Integration tests for the Dyn-MPI runtime: registration, the phase
cycle state machine, redistribution on load change, and node removal."""

import hashlib

import numpy as np
import pytest

from repro.config import ClusterSpec, NetworkSpec, NodeSpec, RuntimeSpec
from repro.core import AccessMode, DynMPIJob, NearestNeighbor
from repro.core.timing import GraceSamples
from repro.errors import RegistrationError
from repro.simcluster import Cluster, CycleTrigger, LoadScript

SPEED = 1e8


def make_cluster(n=4, quantum=0.010):
    return Cluster(ClusterSpec(
        n_nodes=n,
        node=NodeSpec(speed=SPEED, quantum=quantum),
        network=NetworkSpec(latency=75e-6, bandwidth=12.5e6,
                            cpu_per_byte=0.4, cpu_per_msg=3000.0),
    ))


N_ROWS = 64
ROW_WORK = SPEED * 2e-3 / N_ROWS * 4  # ~2 ms per cycle per node on 4 nodes


def synthetic_program(ctx, n_cycles, row_work=None, check_data=False,
                      compute=None):
    """A minimal Dyn-MPI program: one nearest-neighbor phase over a
    materialized array A (and read-halo array B).  ``compute(ctx,
    work_of)`` replaces the cycle's one ``ctx.compute`` call."""
    work = row_work if row_work is not None else ROW_WORK
    A = ctx.register_dense("A", (N_ROWS, 8))
    ctx.register_dense("B", (N_ROWS, 8))
    ctx.init_phase(1, N_ROWS, NearestNeighbor(row_nbytes=64))
    ctx.add_array_access(1, "A", AccessMode.WRITE)
    ctx.add_array_access(1, "B", AccessMode.READ, lo_off=-1, hi_off=1)
    ctx.commit()

    # stamp owned rows of A with their global index (for data checks)
    s, e = ctx.my_bounds()
    for g in range(s, e + 1):
        A.row(g)[:] = g

    def work_of(s, e):
        return np.full(e - s + 1, work)

    for _t in range(n_cycles):
        yield from ctx.begin_cycle()
        if ctx.participating():
            if compute is None:
                yield from ctx.compute(1, work_of)
            else:
                yield from compute(ctx, work_of)
            left, right = ctx.nn_neighbors()
            me = ctx.rel_rank()
            s, e = ctx.my_bounds()
            if e >= s:
                if left is not None:
                    yield from ctx.sendrecv_rel(left, 10, None, left, 11, nbytes=64)
                if right is not None:
                    yield from ctx.sendrecv_rel(right, 11, None, right, 10, nbytes=64)
        yield from ctx.end_cycle()

    if check_data and ctx.participating():
        s, e = ctx.my_bounds()
        for g in range(s, e + 1):
            assert np.all(A.row(g) == g), f"row {g} corrupted after redistribution"
    return ctx.my_bounds()


def test_registration_validation():
    cluster = make_cluster(2)
    job = DynMPIJob(cluster)

    def program(ctx):
        ctx.register_dense("A", (N_ROWS, 4))
        with pytest.raises(RegistrationError):
            ctx.register_dense("A", (N_ROWS, 4))  # duplicate
        ctx.init_phase(1, N_ROWS, NearestNeighbor(row_nbytes=32))
        with pytest.raises(RegistrationError):
            ctx.init_phase(1, N_ROWS, NearestNeighbor(row_nbytes=32))
        with pytest.raises(RegistrationError):
            ctx.init_phase(2, N_ROWS + 1, NearestNeighbor(row_nbytes=32))
        with pytest.raises(RegistrationError):
            ctx.add_array_access(1, "missing", AccessMode.READ)
        ctx.add_array_access(1, "A", AccessMode.WRITE)
        ctx.commit()
        with pytest.raises(RegistrationError):
            ctx.register_dense("C", (N_ROWS, 4))
        with pytest.raises(RegistrationError):  # registration is frozen
            ctx.add_array_access(1, "A", AccessMode.READ)
        yield from ctx.begin_cycle()
        yield from ctx.end_cycle()

    job.launch(program)


def test_commit_requires_phase():
    cluster = make_cluster(2)
    job = DynMPIJob(cluster)

    def program(ctx):
        ctx.register_dense("A", (N_ROWS, 4))
        with pytest.raises(RegistrationError):
            ctx.commit()
        yield from ()

    job.launch(program)


def test_initial_distribution_even_and_halo_held():
    cluster = make_cluster(4)
    job = DynMPIJob(cluster)

    def program(ctx):
        A = ctx.register_dense("A", (N_ROWS, 8))
        B = ctx.register_dense("B", (N_ROWS, 8))
        ctx.init_phase(1, N_ROWS, NearestNeighbor(row_nbytes=64))
        ctx.add_array_access(1, "A", AccessMode.WRITE)
        ctx.add_array_access(1, "B", AccessMode.READ, lo_off=-1, hi_off=1)
        ctx.commit()
        s, e = ctx.my_bounds()
        assert e - s + 1 == N_ROWS // 4
        assert A.holds(s) and A.holds(e) and not A.holds((e + 1) % N_ROWS) or ctx.rel_rank() == 3
        # B holds the read halo
        if s > 0:
            assert B.holds(s - 1)
        if e < N_ROWS - 1:
            assert B.holds(e + 1)
        yield from ()

    job.launch(program)


def test_no_load_change_means_no_adaptation():
    cluster = make_cluster(4)
    job = DynMPIJob(cluster)
    results = job.launch(synthetic_program, args=(20,))
    assert job.events == []
    # even distribution persisted
    for (s, e) in results:
        assert e - s + 1 == N_ROWS // 4


def test_load_change_triggers_grace_then_redistribution():
    cluster = make_cluster(4)
    cluster.install_script(LoadScript(
        cycle_triggers=[CycleTrigger(cycle=5, node=0, action="start")]
    ))
    job = DynMPIJob(cluster, RuntimeSpec(grace_period=3, post_redist_period=5,
                                         allow_removal=False,
                                         daemon_interval=0.05))
    results = job.launch(synthetic_program, args=(40,))
    redists = [ev for ev in job.events if ev.kind == "redistribute"]
    assert len(redists) >= 1
    ev = redists[0]
    # grace starts when dmpi_ps notices (~1 s daemon lag), then 3 cycles
    assert ev.cycle > 5
    # the loaded node's share dropped below even
    shares = ev.detail["shares"]
    assert shares[0] < 0.25
    assert shares[0] < min(shares[1:])
    # ownership reflects the shares: node 0 has fewer rows
    (s0, e0) = results[0]
    assert (e0 - s0 + 1) < N_ROWS // 4


@pytest.mark.parametrize("split", [False, True], ids=["whole", "sub-ranges"])
def test_exec_rows_runs_once_per_compute_call(split, monkeypatch):
    """The slab contract: every ``compute()`` call — normal, grace or
    post-redistribution, whole range or ``rows=`` sub-range — calls
    ``exec_rows`` exactly once, with that call's whole range.  Moving
    the real math out of the grace loop must not move the model: the
    grace samples are the values measured before the change."""
    log = []      # (mode, expected range, exec_rows calls) per compute()
    samples = []  # every grace cycle's per-row measurements, in order
    add_cycle = GraceSamples.add_cycle

    def recording_add_cycle(self, hr, proc):
        samples.append(np.concatenate([hr, proc]))
        add_cycle(self, hr, proc)

    monkeypatch.setattr(GraceSamples, "add_cycle", recording_add_cycle)

    def compute(ctx, work_of):
        s, e = ctx.my_bounds()
        if split and e - s + 1 > 2:  # interior first, like SOR's overlap
            ranges = [(s + 1, e - 1), (s, s), (e, e)]
        else:
            ranges = [None]
        for rows in ranges:
            calls = []
            mode = ctx.view.mode
            yield from ctx.compute(
                1, work_of, lambda lo, hi: calls.append((lo, hi)), rows=rows)
            log.append((mode, rows or (s, e), calls))

    cluster = make_cluster(4)
    cluster.install_script(LoadScript(
        cycle_triggers=[CycleTrigger(cycle=5, node=0, action="start")]
    ))
    job = DynMPIJob(cluster, RuntimeSpec(grace_period=3, post_redist_period=5,
                                         allow_removal=False,
                                         daemon_interval=0.05))
    job.launch(synthetic_program, args=(40, None, False, compute))
    assert any(ev.kind == "redistribute" for ev in job.events)
    assert {mode for mode, _, _ in log} == {"normal", "grace", "post"}
    for mode, expected, calls in log:
        assert calls == [expected], (mode, expected, calls)
    # re-pinned when the clock became integer ns (before that, when
    # isend began charging its caller)
    digest = hashlib.sha256(np.concatenate(samples).tobytes()).hexdigest()
    assert (len(samples), digest) == GRACE_SAMPLES_AT_PARENT[split]


#: (grace cycles measured, sha256 of their hr + /PROC samples) of the
#: run above, whole-range and split
GRACE_SAMPLES_AT_PARENT = {
    False: (12, "8fb510e3c9e1915d1282abf33661170fa73e069696bd2221d233cff33eb01470"),
    True: (36, "83078337ae6beac1ffd2f607b360efb32e6eb6bc8ddcabd9539b73aa21afe8db"),
}


def test_redistribution_preserves_array_contents():
    cluster = make_cluster(4)
    cluster.install_script(LoadScript(
        cycle_triggers=[CycleTrigger(cycle=5, node=1, action="start", count=2)]
    ))
    job = DynMPIJob(cluster, RuntimeSpec(grace_period=2, post_redist_period=4,
                                         allow_removal=False,
                                         daemon_interval=0.05))
    job.launch(synthetic_program, args=(40,), )
    # run again with data checking enabled via kwargs-like tuple
    cluster2 = make_cluster(4)
    cluster2.install_script(LoadScript(
        cycle_triggers=[CycleTrigger(cycle=5, node=1, action="start", count=2)]
    ))
    job2 = DynMPIJob(cluster2, RuntimeSpec(grace_period=2, post_redist_period=4,
                                           allow_removal=False,
                                           daemon_interval=0.05))

    def program(ctx):
        result = yield from synthetic_program(ctx, 40, check_data=True)
        return result

    job2.launch(program)
    assert any(ev.kind == "redistribute" for ev in job2.events)


def test_second_load_change_triggers_second_redistribution():
    cluster = make_cluster(4)
    cluster.install_script(LoadScript(cycle_triggers=[
        CycleTrigger(cycle=5, node=0, action="start"),
        CycleTrigger(cycle=25, node=0, action="stop"),
    ]))
    job = DynMPIJob(cluster, RuntimeSpec(grace_period=2, post_redist_period=3,
                                         allow_removal=False,
                                         daemon_interval=0.05))
    results = job.launch(synthetic_program, args=(60,))
    redists = [ev for ev in job.events if ev.kind == "redistribute"]
    assert len(redists) >= 2
    # after the competitor leaves, shares return to ~even
    last = redists[-1].detail["shares"]
    assert max(last) - min(last) < 0.08
    for (s, e) in results:
        assert abs((e - s + 1) - N_ROWS // 4) <= 3


def test_non_adaptive_job_never_redistributes():
    cluster = make_cluster(4)
    cluster.install_script(LoadScript(
        cycle_triggers=[CycleTrigger(cycle=5, node=0, action="start")]
    ))
    job = DynMPIJob(cluster, adaptive=False)
    results = job.launch(synthetic_program, args=(30,))
    assert job.events == []
    for (s, e) in results:
        assert e - s + 1 == N_ROWS // 4


def test_adaptive_beats_no_adaptation_under_load():
    """The headline property: with a competing process, the Dyn-MPI
    version finishes faster than the never-adapting version."""
    def run(adaptive):
        cluster = make_cluster(4)
        cluster.install_script(LoadScript(
            cycle_triggers=[CycleTrigger(cycle=5, node=0, action="start", count=3)]
        ))
        job = DynMPIJob(
            cluster,
            RuntimeSpec(grace_period=3, post_redist_period=5, allow_removal=False,
                        daemon_interval=0.05),
            adaptive=adaptive,
        )
        job.launch(synthetic_program, args=(160, SPEED * 10e-3 / N_ROWS * 4))
        return cluster.sim.now

    t_adapt = run(True)
    t_static = run(False)
    assert t_adapt < t_static * 0.80


def test_physical_drop_removes_loaded_node():
    """Make communication dominant so keeping a heavily loaded node is
    a losing proposition; Dyn-MPI must physically drop it.  The load
    baseline follows the group: after the drop the survivors compare
    their loads with the shrunk group's, so a long run sees no further
    load change and adapts no more."""
    cluster = make_cluster(4)
    cluster.install_script(LoadScript(
        cycle_triggers=[CycleTrigger(cycle=4, node=2, action="start", count=8)]
    ))
    job = DynMPIJob(cluster, RuntimeSpec(
        grace_period=2, post_redist_period=3, allow_removal=True,
        drop_mode="physical", daemon_interval=0.05,
    ))
    # tiny per-row work: comm/monitoring overhead dominates
    results = job.launch(synthetic_program, args=(100, SPEED * 0.2e-3 / N_ROWS * 4))
    assert [ev.kind for ev in job.events] == ["redistribute", "drop"]
    assert job.events[1].detail["removed_world"] == [2]
    # the removed rank ends with no rows
    s2, e2 = results[2]
    assert e2 < s2
    # survivors own all rows
    total = sum(e - s + 1 for i, (s, e) in enumerate(results) if i != 2)
    assert total == N_ROWS


def test_logical_drop_keeps_rank_with_min_rows():
    cluster = make_cluster(4)
    cluster.install_script(LoadScript(
        cycle_triggers=[CycleTrigger(cycle=4, node=2, action="start", count=8)]
    ))
    job = DynMPIJob(cluster, RuntimeSpec(
        grace_period=2, post_redist_period=3, allow_removal=True,
        drop_mode="logical", daemon_interval=0.05,
    ))
    results = job.launch(synthetic_program, args=(60, SPEED * 0.2e-3 / N_ROWS * 4))
    drops = [ev for ev in job.events if ev.kind == "logical_drop"]
    assert len(drops) == 1
    s2, e2 = results[2]
    assert e2 - s2 + 1 == 1  # minimal assignment, still participating
    total = sum(e - s + 1 for (s, e) in results)
    assert total == N_ROWS


def test_cycle_times_recorded():
    cluster = make_cluster(2)
    job = DynMPIJob(cluster)
    job.launch(synthetic_program, args=(10,))
    for ctx in job.contexts:
        assert len(ctx.cycle_times) == 10
        assert all(t >= 0 for t in ctx.cycle_times)
