"""Tests for node rejoin (paper Section 2.2 / Section 6 future work):
a physically removed node is re-admitted once its competing load
disappears, receiving a fresh share of every registered array."""

import numpy as np

from repro.config import (
    ClusterSpec, NetworkSpec, NodeSpec, ResilienceSpec, RuntimeSpec,
)
from repro.core import AccessMode, DynMPIJob, NearestNeighbor
from repro.simcluster import Cluster, CycleTrigger, LoadScript

SPEED = 1e8
N_ROWS = 64


def make_cluster(n=4):
    return Cluster(ClusterSpec(
        n_nodes=n,
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


def run_scenario(*, allow_rejoin, n_cycles=120, stop_cycle=60):
    cluster = make_cluster(4)
    # heavy load drives the drop; it disappears at stop_cycle
    cluster.install_script(LoadScript(cycle_triggers=[
        CycleTrigger(cycle=4, node=2, action="start", count=8),
        CycleTrigger(cycle=stop_cycle, node=2, action="stop", count=8),
    ]))
    spec = RuntimeSpec(
        grace_period=2, post_redist_period=3, allow_removal=True,
        drop_mode="physical", allow_rejoin=allow_rejoin,
        daemon_interval=0.01,
    )
    job = DynMPIJob(cluster, spec)
    # tiny per-row work: comm dominates -> the loaded node gets dropped
    results = job.launch(program, args=(n_cycles, SPEED * 0.2e-3 / N_ROWS * 4, True))
    return job, results


def test_drop_then_rejoin_restores_node():
    job, results = run_scenario(allow_rejoin=True)
    kinds = [ev.kind for ev in job.events]
    assert "drop" in kinds
    assert "rejoin" in kinds
    drop_i = kinds.index("drop")
    assert "rejoin" in kinds[drop_i:]
    # after rejoin the node owns rows again
    s2, e2 = results[2]
    assert e2 >= s2
    # all rows tiled across ranks
    total = sum(e - s + 1 for (s, e) in results if e >= s)
    assert total == N_ROWS
    rejoin_ev = next(ev for ev in job.events if ev.kind == "rejoin")
    assert rejoin_ev.detail["rejoined_world"] == [2]


def test_rejoin_preserves_array_contents():
    job, results = run_scenario(allow_rejoin=True)
    # data checks run inside the program (check_data=True); reaching
    # here means every rank's rows still carry their global index
    assert any(ev.kind == "rejoin" for ev in job.events)


def test_no_rejoin_without_flag():
    job, results = run_scenario(allow_rejoin=False)
    kinds = [ev.kind for ev in job.events]
    assert "drop" in kinds
    assert "rejoin" not in kinds
    s2, e2 = results[2]
    assert e2 < s2  # stays removed


def test_rejoin_during_post_redistribution_period():
    """A node may be re-admitted while the survivors are still inside
    the post-redistribution damping window of an unrelated load change;
    the rejoin resets the window rather than fighting it.  Runs with
    checkpointing enabled so the rejoin path of the resilient control
    exchange is the one exercised."""
    cluster = make_cluster(4)
    cluster.install_script(LoadScript(cycle_triggers=[
        CycleTrigger(cycle=4, node=2, action="start", count=8),
        # a second load change opens a long POST window on the
        # survivor group just before node 2's load clears
        CycleTrigger(cycle=48, node=1, action="start", count=1),
        CycleTrigger(cycle=50, node=2, action="stop", count=8),
    ]))
    spec = RuntimeSpec(
        grace_period=2, post_redist_period=40, allow_removal=True,
        drop_mode="physical", allow_rejoin=True, daemon_interval=0.01,
        resilience=ResilienceSpec(heartbeat_timeout=10.0),
    )
    job = DynMPIJob(cluster, spec)
    results = job.launch(program, args=(140, SPEED * 0.2e-3 / N_ROWS * 4, True))
    kinds = [ev.kind for ev in job.events]
    assert "drop" in kinds and "rejoin" in kinds
    rejoin_ev = next(ev for ev in job.events if ev.kind == "rejoin")
    redists = [ev.cycle for ev in job.events
               if ev.kind == "redistribute" and ev.cycle < rejoin_ev.cycle]
    assert redists, f"no redistribution before the rejoin in {kinds}"
    # the rejoin landed inside the open 40-cycle POST window
    assert 1 <= rejoin_ev.cycle - max(redists) <= 40
    total = sum(e - s + 1 for (s, e) in results if e >= s)
    assert total == N_ROWS


def test_rejoined_node_participates_in_collectives():
    """After rejoin, the next load change redistributes over the full
    group again (the rejoined rank is a first-class member)."""
    cluster = make_cluster(4)
    cluster.install_script(LoadScript(cycle_triggers=[
        CycleTrigger(cycle=4, node=2, action="start", count=8),
        CycleTrigger(cycle=50, node=2, action="stop", count=8),
        CycleTrigger(cycle=90, node=1, action="start", count=1),
    ]))
    spec = RuntimeSpec(
        grace_period=2, post_redist_period=3, allow_removal=True,
        drop_mode="physical", allow_rejoin=True, daemon_interval=0.01,
    )
    job = DynMPIJob(cluster, spec)
    results = job.launch(program, args=(150, SPEED * 0.2e-3 / N_ROWS * 4))
    kinds = [ev.kind for ev in job.events]
    assert "rejoin" in kinds
    rejoin_i = kinds.index("rejoin")
    # a redistribution happens after the rejoin (for the new load on
    # node 1), and it spans 4 shares again
    later = [ev for ev in job.events[rejoin_i + 1:] if ev.kind == "redistribute"]
    assert later, f"no post-rejoin redistribution in {kinds}"
    assert len(later[-1].detail["shares"]) == 4


def run_staggered_drops(monkeypatch, last_trigger, **spec_kw):
    """Two nodes are loaded, dropped and unloaded at staggered cycles,
    so the first rank to rejoin was parked through a redistribution it
    took no part in: redistribute@17, drop[2]@20, redistribute@42,
    drop[3]@45, rejoin[2]@79, then ``last_trigger`` at cycle 110."""
    monkeypatch.setitem(globals(), "N_ROWS", 96)  # read by program()
    cluster = make_cluster(6)
    cluster.install_script(LoadScript(cycle_triggers=[
        CycleTrigger(cycle=4, node=2, action="start", count=8),
        CycleTrigger(cycle=30, node=3, action="start", count=8),
        CycleTrigger(cycle=70, node=2, action="stop", count=8),
        last_trigger,
    ]))
    job = DynMPIJob(cluster, RuntimeSpec(
        grace_period=2, post_redist_period=3, allow_removal=True,
        drop_mode="physical", allow_rejoin=True, daemon_interval=0.01,
        **spec_kw,
    ))
    results = job.launch(program, args=(200, SPEED * 0.2e-3 / 96 * 4, True))
    return job, results


def assert_one_replicated_view(job, results):
    # each rank reports the bounds of its *own* view: they must tile
    # the rows exactly once (check_data already proved every owned row
    # kept its stamp)
    owned = sorted(b for b in results if b[1] >= b[0])
    assert owned[0][0] == 0 and owned[-1][1] == 95
    for (_s1, e1), (s2, _e2) in zip(owned, owned[1:]):
        assert s2 == e1 + 1
    first = job.contexts[0]
    for ctx in job.contexts[1:]:
        assert ctx.view.n_redistributions == first.view.n_redistributions
        assert np.array_equal(ctx.view.row_weights, first.view.row_weights)


def test_rejoined_rank_adopts_the_whole_replicated_view(monkeypatch):
    """A rejoining rank used to rebuild only group and bounds from its
    token, kept the row weights of the redistribution before its drop,
    and planned the *next* rejoin differently from everyone else (rows
    46-47 owned twice, 29-31 by nobody)."""
    job, results = run_staggered_drops(
        monkeypatch, CycleTrigger(cycle=110, node=3, action="stop", count=8))
    assert [(ev.kind, ev.detail["rejoined_world"]) for ev in job.events
            if ev.kind == "rejoin"] == [("rejoin", [2]), ("rejoin", [3])]
    assert all(b[1] >= b[0] for b in results)
    assert_one_replicated_view(job, results)


def test_rejoined_rank_shares_the_redistribution_budget(monkeypatch):
    """With the budget spent while it was parked, the rejoined rank's
    stale ``n_redistributions`` let it enter grace alone on the next
    load change and allgather a different record shape than its peers
    (a bare ValueError out of ``np.asarray(loads)``)."""
    job, results = run_staggered_drops(
        monkeypatch, CycleTrigger(cycle=110, node=4, action="start", count=1),
        max_redistributions=2)
    assert [ev.kind for ev in job.events] == [
        "redistribute", "drop", "redistribute", "drop", "rejoin"]
    # still loaded, still parked at the end: under the sanitizer its last
    # load report, sent behind the root's final poll, is only a warning
    assert results[3] == (0, -1)
    assert_one_replicated_view(job, results)
