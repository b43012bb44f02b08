"""Tests for repro.resilience: injected node crashes, in-memory buddy
checkpointing, heartbeat failure detection, and lockstep recovery
(crash treated as an involuntary Section 4.4 removal)."""

import numpy as np
import pytest

from repro.config import (
    ClusterSpec, NetworkSpec, NodeSpec, ResilienceSpec, RuntimeSpec,
)
from repro.core import AccessMode, DynMPIJob, NearestNeighbor
from repro.core.loadmon import FailureDetector
from repro.errors import CheckpointLostError, ConfigError, RankFailedError
from repro.dmem import ProjectedArray
from repro.resilience import (
    CheckpointStore,
    CycleFault,
    FailureScript,
    holder_for,
    node_crash,
    ring_buddies,
    snapshot,
)
from repro.obs import CPU_TID
from repro.simcluster import Cluster, CycleTrigger, LoadScript, single_competitor

SPEED = 1e8
N_ROWS = 64
# per-row work giving ~40 ms of compute per cycle on 4 ranks: long
# enough that a stopped heartbeat crosses the detection timeout a
# deterministic two cycles after the crash (see HEARTBEAT_TIMEOUT)
ROW_WORK = SPEED * 0.04 / (N_ROWS // 4)
HEARTBEAT_TIMEOUT = 0.055


def make_cluster(n=4, observe=None):
    return Cluster(ClusterSpec(
        n_nodes=n, observe=observe,
        node=NodeSpec(speed=SPEED),
        network=NetworkSpec(latency=75e-6, bandwidth=12.5e6,
                            cpu_per_byte=0.4, cpu_per_msg=3000.0),
    ))


def program(ctx, n_cycles, row_work, check_data=False):
    A = ctx.register_dense("A", (N_ROWS, 8))
    ctx.init_phase(1, N_ROWS, NearestNeighbor(row_nbytes=64))
    ctx.add_array_access(1, "A", AccessMode.READWRITE, lo_off=-1, hi_off=1)
    ctx.commit()
    s, e = ctx.my_bounds()
    for g in range(s, e + 1):
        A.row(g)[:] = g

    def work_of(s, e):
        return np.full(e - s + 1, row_work)

    for _t in range(n_cycles):
        yield from ctx.begin_cycle()
        if ctx.participating():
            yield from ctx.compute(1, work_of)
        yield from ctx.end_cycle()

    if check_data and ctx.participating():
        s, e = ctx.my_bounds()
        for g in range(s, e + 1):
            assert np.all(A.row(g) == g), f"row {g} corrupted"
    return ctx.my_bounds()


def resilient_spec(**kw):
    base = dict(
        grace_period=2, post_redist_period=3, allow_removal=True,
        drop_mode="physical", allow_rejoin=True, daemon_interval=0.01,
        resilience=ResilienceSpec(heartbeat_timeout=HEARTBEAT_TIMEOUT),
    )
    base.update(kw)
    return RuntimeSpec(**base)


def run_crash_scenario(script, *, spec=None, n_cycles=30, observe=None):
    cluster = make_cluster(4, observe)
    cluster.install_failure_script(script)
    job = DynMPIJob(cluster, spec or resilient_spec())
    results = job.launch(program, args=(n_cycles, ROW_WORK, True))
    return job, results


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_resilience_spec_defaults():
    res = ResilienceSpec()
    assert res.checkpoint_interval == 1
    assert res.replication == 1
    # no explicit timeout: 3 heartbeat periods
    assert res.resolve_timeout(0.01) == pytest.approx(0.03)
    assert ResilienceSpec(heartbeat_timeout=0.5).resolve_timeout(0.01) == 0.5


@pytest.mark.parametrize("kw", [
    {"checkpoint_interval": 0},
    {"replication": 0},
    {"heartbeat_timeout": -1.0},
])
def test_resilience_spec_validation(kw):
    with pytest.raises(ConfigError):
        ResilienceSpec(**kw)


# ---------------------------------------------------------------------------
# checkpoint layer
# ---------------------------------------------------------------------------

def test_ring_buddies():
    assert ring_buddies(0, 4, 1) == [1]
    assert ring_buddies(3, 4, 2) == [0, 1]
    assert ring_buddies(1, 4, 10) == [2, 3, 0]  # clipped to size-1
    assert ring_buddies(0, 1, 3) == []          # degenerate ring


def test_holder_for_prefers_nearest_alive_buddy():
    assert holder_for(1, 4, 2, alive_rels={2, 3}) == 2
    assert holder_for(1, 4, 2, alive_rels={0, 3}) == 3
    with pytest.raises(CheckpointLostError):
        holder_for(1, 4, 1, alive_rels={0, 3})  # sole buddy (2) died too


def test_snapshot_restore_roundtrip():
    src = ProjectedArray("A", (8, 4))
    src.hold(range(2, 6))
    for g in range(2, 6):
        src.row(g)[:] = 10 * g
    ckpt = snapshot({"A": src}, (2, 5), owner_world=1, cycle=7)
    assert ckpt.owner_world == 1 and ckpt.cycle == 7
    assert ckpt.owned_rows() == {2, 3, 4, 5}
    assert ckpt.nbytes > 0

    dst = ProjectedArray("A", (8, 4))
    installed = ckpt.restore({"A": dst})
    assert installed == 4
    for g in range(2, 6):
        assert np.all(dst.row(g) == 10 * g)


def test_snapshot_of_empty_bounds_is_header_only():
    ckpt = snapshot({}, None, owner_world=3, cycle=0)
    assert ckpt.owned_rows() == set()
    assert ckpt.arrays == {}


def test_checkpoint_store_keeps_newest_per_owner():
    store = CheckpointStore()
    store.put(snapshot({}, None, owner_world=1, cycle=3))
    store.put(snapshot({}, None, owner_world=1, cycle=9))
    store.put(snapshot({}, None, owner_world=2, cycle=9))
    assert store.owners() == [1, 2]
    assert store.get(1).cycle == 9
    assert store.held_nbytes > 0
    store.discard(1)
    assert store.get(1) is None
    store.discard(1)  # idempotent


# ---------------------------------------------------------------------------
# failure detector
# ---------------------------------------------------------------------------

class FakePs:
    def __init__(self):
        self.t = 0.0
        self.samples = {}
        self.alive = {}

    def last_sample_time(self, node_id):
        return self.samples.get(node_id, float("-inf"))

    def app_alive(self, node_id):
        return self.alive.get(node_id, True)


def test_detector_no_false_positive_at_boot():
    ps = FakePs()
    det = FailureDetector(ps, timeout=0.5, now=lambda: ps.t)
    # no sample yet, but we are inside the first timeout window: boot
    # counts as an implicit heartbeat
    ps.t = 0.4
    assert not det.suspect(0)
    ps.t = 0.6
    assert det.suspect(0)


def test_detector_stale_heartbeat_and_dead_app():
    ps = FakePs()
    det = FailureDetector(ps, timeout=0.5, now=lambda: ps.t)
    ps.samples[0] = 1.0
    ps.t = 1.4
    assert not det.suspect(0)
    ps.t = 1.6
    assert det.suspect(0)
    # a dead application is suspicious even with a fresh heartbeat
    ps.samples[1] = 1.59
    ps.alive[1] = False
    assert det.suspect(1)
    assert det.sweep([0, 1]) == [0, 1]


def test_detector_logs_first_suspicion_and_latency():
    ps = FakePs()
    det = FailureDetector(ps, timeout=0.5, now=lambda: ps.t)
    ps.samples[0] = 1.0
    ps.t = 2.0
    assert det.suspect(0) and det.suspect(0)
    assert det.suspected_log == [(2.0, 0)]  # first suspicion only
    assert det.detection_latency(0, fail_time=1.0) == pytest.approx(1.0)
    assert det.detection_latency(3, fail_time=0.0) is None


def test_detector_rejects_bad_timeout():
    with pytest.raises(ValueError):
        FailureDetector(FakePs(), timeout=0.0)


# ---------------------------------------------------------------------------
# crash recovery (the tentpole)
# ---------------------------------------------------------------------------

def test_crash_recovery_restores_rows():
    job, results = run_crash_scenario(node_crash(2, at_cycle=10))
    kinds = [ev.kind for ev in job.events]
    assert "crash_recovery" in kinds
    ev = next(ev for ev in job.events if ev.kind == "crash_recovery")
    assert ev.detail["dead_world"] == [2]
    assert ev.detail["parked_dead"] == []
    # ring buddy of rel 2 is rel 3; it replayed 16 rows of "A"
    assert ev.detail["holders"] == {2: 3}
    assert ev.detail["adopted_rows"] == 16
    assert ev.detail["replayed_installs"] == 16
    # the victim's generator was closed, not run to completion
    assert results[2] is None
    assert job.contexts[2].crashed
    # survivors tile every row between them (check_data inside the
    # program already proved each row still carries its global index,
    # i.e. the checkpoint replay was correct)
    survivor_bounds = [results[w] for w in (0, 1, 3)]
    total = sum(e - s + 1 for (s, e) in survivor_bounds if e >= s)
    assert total == N_ROWS


def test_crash_detection_latency_is_bounded():
    job, _results = run_crash_scenario(node_crash(1, at_cycle=8), observe=True)
    crash_t = next(e.ts for e in job.cluster.obs.events
                   if (e.name, e.pid) == ("fault.crash", 1))
    latency = job.detector.detection_latency(1, crash_t)
    # stale-heartbeat detection: within the timeout plus a few cycles
    assert latency is not None
    assert latency <= HEARTBEAT_TIMEOUT + 0.2


def test_double_crash_survives_with_replication_two():
    script = FailureScript(cycle_faults=[
        CycleFault(cycle=8, node=1, action="crash"),
        CycleFault(cycle=8, node=2, action="crash"),
    ])
    job, results = run_crash_scenario(
        script,
        spec=resilient_spec(resilience=ResilienceSpec(
            replication=2, heartbeat_timeout=HEARTBEAT_TIMEOUT)),
    )
    ev = next(ev for ev in job.events if ev.kind == "crash_recovery")
    assert ev.detail["dead_world"] == [1, 2]
    # rel 1's buddies are (2, 3): 2 is dead, 3 replays; rel 2's buddies
    # are (3, 0): 3 replays both
    assert ev.detail["holders"] == {1: 3, 2: 3}
    total = sum(e - s + 1 for w in (0, 3) for (s, e) in [results[w]] if e >= s)
    assert total == N_ROWS


def test_double_adjacent_crash_without_replication_loses_checkpoint():
    """replication=1 cannot survive a rank and its sole buddy dying in
    the same detection window: survivors fail loudly, not silently."""
    script = FailureScript(cycle_faults=[
        CycleFault(cycle=8, node=1, action="crash"),
        CycleFault(cycle=8, node=2, action="crash"),
    ])
    with pytest.raises(CheckpointLostError):
        run_crash_scenario(script)


def test_crash_of_parked_rank():
    """A node that crashes while physically removed (parked, waiting to
    rejoin) is excised from the rejoin protocol via a 'dead' token; no
    data recovery is needed because it owned no rows."""
    cluster = make_cluster(4)
    cluster.install_load_script(LoadScript(cycle_triggers=[
        CycleTrigger(cycle=4, node=2, action="start", count=8),
    ]))
    cluster.install_failure_script(node_crash(2, at_cycle=30))
    # comm-dominant cycles so the loaded node is dropped (the
    # test_rejoin regime), with a proportionally tight heartbeat
    job = DynMPIJob(cluster, resilient_spec(
        daemon_interval=0.002,
        resilience=ResilienceSpec(heartbeat_timeout=0.01),
    ))
    results = job.launch(program, args=(140, SPEED * 0.2e-3 / N_ROWS * 4, True))
    kinds = [ev.kind for ev in job.events]
    assert "drop" in kinds
    assert "crash_recovery" in kinds
    assert "rejoin" not in kinds
    ev = next(ev for ev in job.events if ev.kind == "crash_recovery")
    assert ev.detail["dead_world"] == [2]
    assert ev.detail["parked_dead"] == [2]
    assert "holders" not in ev.detail  # nothing to replay
    assert results[2] is None
    assert job.contexts[2].crashed
    total = sum(e - s + 1 for w in (0, 1, 3)
                for (s, e) in [results[w]] if e >= s)
    assert total == N_ROWS


def test_checkpointing_disabled_without_spec():
    cluster = make_cluster(4)
    job = DynMPIJob(cluster, RuntimeSpec(daemon_interval=0.01))
    job.launch(program, args=(6, ROW_WORK))
    assert job.detector is None
    assert all(ctx._ckpt_store is None for ctx in job.contexts)


def test_checkpoint_interval_spacing():
    """interval=4: snapshots land only every 4th cycle (plus forced
    post-change snapshots), so the stored replica's cycle stamp lags."""
    cluster = make_cluster(4)
    job = DynMPIJob(cluster, resilient_spec(resilience=ResilienceSpec(
        checkpoint_interval=4, heartbeat_timeout=HEARTBEAT_TIMEOUT)))
    job.launch(program, args=(11, ROW_WORK))
    for ctx in job.contexts:
        stored = [ctx._ckpt_store.get(o) for o in ctx._ckpt_store.owners()]
        assert stored, "every rank should hold a neighbor replica"
        assert all(c.cycle % 4 == 0 for c in stored)


def _run_jacobi(crash_cycle=None, *, observe=None, load_script=None, **spec_kw):
    from repro.apps import JacobiConfig, jacobi_program, run_program

    cluster = make_cluster(4, observe)
    if crash_cycle is not None:
        cluster.install_failure_script(node_crash(1, at_cycle=crash_cycle))
    spec = resilient_spec(
        daemon_interval=0.001,
        resilience=ResilienceSpec(heartbeat_timeout=0.004),
        **spec_kw,
    )
    cfg = JacobiConfig(n=64, iters=60, materialized=True, collect=True, seed=3)
    return run_program(cluster, jacobi_program, cfg, spec=spec,
                       load_script=load_script)


def test_jacobi_bitwise_equal_after_crash():
    """The acceptance bar for the recovery protocol: a Jacobi run with
    a mid-run node crash finishes with *bitwise* the same grid as a
    crash-free run — the buddy checkpoint replays the exact
    cycle-boundary state, and redistribution never perturbs values."""
    clean = _run_jacobi()
    crashed = _run_jacobi(crash_cycle=15)
    ev = [e for e in crashed.events if e.kind == "crash_recovery"]
    assert len(ev) == 1 and ev[0].detail["dead_world"] == [1]
    assert crashed.per_rank[1] is None  # the victim returned nothing
    ref = clean.per_rank[0]["grid"]
    for w in (0, 2, 3):
        got = crashed.per_rank[w]["grid"]
        assert np.array_equal(got, ref), f"rank {w} grid diverged"
    # the survivors collect once: one read-only grid shared by all three
    shared = crashed.per_rank[0]["grid"]
    assert all(crashed.per_rank[w]["grid"] is shared for w in (2, 3))
    assert not shared.flags.writeable
    # per-rank checksums are partial sums over local bounds (which
    # differ after recovery); their total is layout-independent
    total_clean = sum(r["checksum"] for r in clean.per_rank if r)
    total_crash = sum(r["checksum"] for r in crashed.per_rank if r)
    assert total_crash == pytest.approx(total_clean, rel=1e-12)


def test_load_and_fault_marks_precede_the_adaptations_they_cause():
    """Why the runtime entered grace is in the trace: the competing
    process's start and stop and the injected crash are instants on the
    affected node's CPU track, stamped when the script fired."""
    res = _run_jacobi(
        crash_cycle=40, observe=True, allow_removal=False,
        load_script=single_competitor(0, start_cycle=5, stop_cycle=20))
    job = res.job
    trace = job.cluster.obs.sorted_events()
    marks = [e for e in trace if e.cat in ("load", "fault")]
    assert [(e.name, e.pid) for e in marks] == [
        ("load.start", 0), ("load.stop", 0), ("fault.crash", 1)]
    assert all((e.ph, e.tid) == ("i", CPU_TID) for e in marks)
    # rank 0 fires the cycle triggers as it enters the cycle
    stamps = job.contexts[0].cycle_stamps
    assert [e.ts for e in marks] == [stamps[5][0], stamps[20][0], stamps[40][0]]
    assert marks[2].ts == job.cluster.failure_board.crash_time(1)
    # each load change is followed by the grace period it caused, the
    # crash by its recovery
    names = [e.name for e in trace]
    start, stop, crash = (trace.index(m) for m in marks)
    assert "adapt.grace_enter" in names[start:stop]
    assert "adapt.grace_enter" in names[stop:crash]
    assert "adapt.crash_recovery" in names[crash:]
    assert "adapt.grace_enter" not in names[:start]


# ---------------------------------------------------------------------------
# hard failures (kill / inject): fail fast, no recovery guarantee
# ---------------------------------------------------------------------------

def test_hard_kill_poisons_survivors():
    """A hard-killed rank cannot run the cooperative protocol; peers
    blocked on it must get RankFailedError instead of a deadlock."""
    script = FailureScript(cycle_faults=[
        CycleFault(cycle=8, node=1, action="kill"),
    ])
    cluster = make_cluster(4)
    cluster.install_failure_script(script)
    job = DynMPIJob(cluster, RuntimeSpec(daemon_interval=0.01))
    with pytest.raises(RankFailedError):
        job.launch(program, args=(30, ROW_WORK))


def test_rank_failed_error_message():
    err = RankFailedError(3)
    assert "rank 3" in str(err)
    assert RankFailedError(1, "send to").rank == 1
