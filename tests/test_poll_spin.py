"""The busy-polling receive as one CPU spin job (the ``Poll`` syscall).

Equivalence: the spin job must be indistinguishable from the chain of
one-step ``Compute`` requests it replaced (kept verbatim in
``tests/oracles/poll_loop.py``) in everything but event count — notice
time, CPU accounting, fair-share EMA, quantum credit, jitter stream.
Lifecycle: a poll with no sender deadlocks instead of spinning, and a
process killed or interrupted mid-poll leaves nothing behind.
"""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.config import ClusterSpec, NetworkSpec, NodeSpec
from repro.errors import DeadlockError, RankFailedError, SimulationError
from repro.mpi import make_comm, run_spmd
from repro.mpi.comm import SimComm
from repro.obs.scenario import RemovalScenario, run_removal
from repro.simcluster import Cluster, Compute, Poll, ProcState, Sleep, to_ns, to_s

from tests.oracles.poll_loop import chunk_loop_recv

QUANTUM = 0.010
STEP = QUANTUM * 0.01  # one poll step, CPU seconds
STEP_NS = to_ns(STEP)
QUANTUM_NS = to_ns(QUANTUM)
SPEED = 1e8


def make_cluster(seed=0, n=2, observe=None):
    return Cluster(ClusterSpec(
        n_nodes=n, seed=seed, observe=observe,
        node=NodeSpec(speed=SPEED, quantum=QUANTUM),
        network=NetworkSpec(latency=1e-5, bandwidth=1e8, cpu_per_byte=0.0,
                            cpu_per_msg=2000.0, recv_mode="polling"),
    ))


def rank_proc(sim, rank):
    return next(p for p in sim.processes if p.name == f"rank{rank}")


# ---------------------------------------------------------------------------
# spin job vs chunk loop
# ---------------------------------------------------------------------------

def run_case(seed, n_cp, warm, reply, send_at, oracle, churn_at=None):
    """Rank 1 receives (polling) what rank 0 sends at ``send_at``;
    returns what an observer of rank 1's node could measure.  At
    ``churn_at`` a competitor leaves rank 1's node (or, if there is
    none, arrives)."""
    cluster = make_cluster(seed)
    sim = cluster.sim
    node = cluster.nodes[1]
    for _ in range(n_cp):
        node.start_competing()
    if churn_at is not None:
        sim.schedule(to_ns(churn_at), node.stop_all_competing if n_cp == 1
                     else node.start_competing)
    out = {"step_ends": [], "arrivals": [], "first_step_polls": 0}

    if oracle:
        # every mailbox look of the loop is a step end; an arrival
        # landing on one is a tie the two forms may resolve differently
        try_match = SimComm._try_match
        deliver = SimComm._deliver

        def spy_match(comm, rank, source, tag):
            if rank == 1:
                out["step_ends"].append(sim.now)
            return try_match(comm, rank, source, tag)

        def spy_deliver(comm, env):
            if env.dst == 1:
                out["arrivals"].append(sim.now)
            return deliver(comm, env)

    def polled_recv(ep, src, tag):
        # the only CPU job of the rank inside a receive is its poll; a
        # poll noticed on its first step ran exactly one step
        proc = rank_proc(sim, ep.rank)
        before = proc.cpu_time
        yield from ep.recv(src, tag=tag)
        if 0 < proc.cpu_time - before < 1.5 * STEP_NS:
            out["first_step_polls"] += 1

    def program(ep):
        if ep.rank == 0:
            yield Sleep(send_at)
            yield from ep.send(1, tag=0, payload="x")
            if reply:
                yield from polled_recv(ep, 1, 1)
            return None
        proc = rank_proc(sim, 1)
        if warm in ("compute", "compute+sleep"):
            yield Compute(0.03 * SPEED)   # well above any fair share
        if warm in ("sleep", "compute+sleep"):
            yield Sleep(0.0007)           # the poll starts as a wakeup
        if reply:
            yield from ep.isend(0, tag=1, payload="y")  # paid before the poll
        yield from polled_recv(ep, 0, 0)
        out["noticed"] = sim.now
        out["cpu_time"] = proc.cpu_time
        out["busy_time"] = node.cpu.busy_time
        out["ema"] = node.cpu._ema_share(proc)
        cont = node.cpu._cont
        out["credit"] = cont[2] if cont is not None and cont[1] == sim.now else None
        yield Compute(0.004 * SPEED)      # runs on what credit the poll left
        out["follow_up"] = sim.now
        return None

    if oracle:
        with chunk_loop_recv():
            SimComm._try_match, SimComm._deliver = spy_match, spy_deliver
            try:
                run_spmd(cluster, program)
            finally:
                SimComm._try_match, SimComm._deliver = try_match, deliver
    else:
        run_spmd(cluster, program)
    out["events"] = sim.n_events
    return out


@given(
    seed=st.integers(0, 20),
    n_cp=st.integers(0, 3),
    warm=st.sampled_from(["none", "compute", "sleep", "compute+sleep"]),
    reply=st.booleans(),
    send_at=st.floats(0.0002, 0.09),
    churn_at=st.none() | st.floats(0.0001, 0.1),
)
@settings(max_examples=120, deadline=None)
# both ranks poll (reply) and both polls end on their first step
@example(seed=3, n_cp=3, warm="compute", reply=True,
         send_at=0.08922611712953357, churn_at=None)
def test_spin_job_matches_chunk_loop(seed, n_cp, warm, reply, send_at,
                                     churn_at):
    case = (seed, n_cp, warm, reply, send_at)
    loop = run_case(*case, oracle=True, churn_at=churn_at)
    # off-boundary only: an arrival (or a competitor's) landing exactly
    # on a step end is a tie the two forms may order differently
    ties = [loop["arrivals"][0]] + ([] if churn_at is None else [to_ns(churn_at)])
    assume(all(t != tie for t in loop["step_ends"] for tie in ties))
    spin = run_case(*case, oracle=False, churn_at=churn_at)
    for key in ("noticed", "cpu_time", "busy_time", "follow_up", "credit"):
        assert spin[key] == loop[key], key
    assert spin["ema"] == pytest.approx(loop["ema"], abs=1e-9)
    # a poll noticed at its first step costs the stop event extra
    assert spin["events"] <= loop["events"] + spin["first_step_polls"]


@pytest.mark.parametrize("seed,n_cp,warm,send_at", [
    (0, 1, "none", 0.029519955),
    (0, 2, "sleep", 0.01066935),
    (3, 2, "none", 0.039241383),
])
def test_arrival_as_the_poller_is_rotated_out_on_a_step_end(seed, n_cp, warm,
                                                            send_at):
    """The tie rule for a queued spin job: its turn ended exactly on a
    step end, and the message lands at that very instant.  The loop's
    step completed then, and its mailbox look (queued after the arrival)
    saw the message, so no further step runs.  The spin job used to run
    one more whole step when next dispatched."""
    loop = run_case(seed, n_cp, warm, False, send_at, oracle=True)
    # the tie is real: the loop's last look was at the arrival instant,
    # and a competitor's turn came before its receive charge
    assert loop["arrivals"][0] == loop["step_ends"][-1]
    assert loop["noticed"] - loop["arrivals"][0] > QUANTUM_NS / 2
    spin = run_case(seed, n_cp, warm, False, send_at, oracle=False)
    for key in ("noticed", "cpu_time", "busy_time", "follow_up", "credit"):
        assert spin[key] == loop[key], key
    assert spin["ema"] == pytest.approx(loop["ema"], abs=1e-9)


def test_long_wait_costs_constant_events():
    """Waiting 100x longer must not cost more events (the loop pays
    two per poll step on an idle node, three on a loaded one)."""
    events = {}
    for send_at in (0.001, 0.1):
        events[send_at] = run_case(0, 0, "none", False, send_at,
                                   oracle=False)["events"]
    assert events[0.1] == events[0.001]
    with_loop = run_case(0, 0, "none", False, 0.1, oracle=True)["events"]
    assert with_loop > 2 * 0.1 / STEP > 100 * events[0.1]


def test_arrival_on_a_step_boundary_is_noticed_at_that_boundary():
    """The tie rule, pinned.  Alone on its CPU from t=0, the poller's
    step ends fall on multiples of STEP; a signal fired exactly on one
    ends the poll right there, one fired any later (by 1 ns, the clock's
    resolution) costs the next step.  The loop resolves the tie the same
    way: the arrival event is always queued ahead of the poller's
    resume."""
    for fire_at, noticed_at in ((50 * STEP_NS, 50 * STEP_NS),
                                (50 * STEP_NS + 1, 51 * STEP_NS),
                                (0, STEP_NS)):   # at least one step
        cluster = make_cluster()
        sim = cluster.sim
        sig = sim.signal("msg")
        seen = {}

        def poller():
            yield Poll(STEP * SPEED, sig)
            seen["t"] = sim.now

        sim.spawn(poller(), name="poller", node=cluster.nodes[0])
        sim.schedule(fire_at, sig.fire)
        sim.run()
        assert seen["t"] == noticed_at


def test_poll_rejects_bad_chunk_and_detached_process():
    cluster = make_cluster()
    with pytest.raises(ValueError):
        Poll(0.0, cluster.sim.signal())

    def detached():
        yield Poll(1.0, cluster.sim.signal())

    cluster.sim.spawn(detached(), name="d")
    with pytest.raises(SimulationError, match="not attached"):
        cluster.sim.run()


@pytest.mark.parametrize("ranks", [8, 16])
def test_removal_simulated_time_matches_chunk_loop(ranks):
    """Whole-stack equivalence on the benchmark's recipe: the small
    removal runs see no on-boundary arrival, so simulated time and
    every decision match the loop's; only the event count drops."""
    scenario = RemovalScenario(n_nodes=ranks, n=4 * ranks, iters=16,
                               load_cycle=2, n_cp=2)
    spin, spin_cluster = run_removal(scenario, observe=False)
    with chunk_loop_recv():
        loop, loop_cluster = run_removal(scenario, observe=False)
    assert spin.wall_time == loop.wall_time
    assert spin.bounds == loop.bounds
    assert ([(e.kind, e.cycle) for e in spin.events]
            == [(e.kind, e.cycle) for e in loop.events]
            == [("redistribute", 7), ("drop", 12)])
    assert spin_cluster.network.n_messages == loop_cluster.network.n_messages
    # the loop pays two events per poll step, the spin job a constant
    # few per poll; polls are short here (each rank pays its isends
    # before it polls), so the loop's excess is over 2x (8 ranks: 4 874
    # vs 13 342 events, 16 ranks: 13 516 vs 31 287)
    assert 2 * spin_cluster.sim.n_events < loop_cluster.sim.n_events


# ---------------------------------------------------------------------------
# lifecycle
# ---------------------------------------------------------------------------

def test_polling_recv_without_sender_deadlocks_when_queue_drains():
    cluster = make_cluster()

    def program(ep):
        if ep.rank == 1:
            yield from ep.recv(0, tag=0)

    with pytest.raises(DeadlockError) as err:
        run_spmd(cluster, program)
    assert "rank1" in str(err.value)
    assert cluster.sim.n_events < 20   # was: spin to the 200M max_events guard


def _poll_victim(n_cp):
    """A rank mid-``Poll`` (nobody ever sends), plus the bits the
    lifecycle tests look at."""
    cluster = make_cluster()
    for _ in range(n_cp):
        cluster.nodes[1].start_competing()
    comm = make_comm(cluster)
    caught = []

    def victim(ep):
        try:
            yield from ep.recv(0, tag=0)
        except RuntimeError as exc:
            caught.append(exc)
            yield Compute(1e5)   # keeps running after the interrupt
        return "survived"

    proc = cluster.sim.spawn(victim(comm.endpoint(1)), name="victim",
                             node=cluster.nodes[1])
    fired = []
    proc.done_signal.add_waiter(fired.append)
    # a lone spin job holds no timer, so something else must keep the
    # queue from draining (and the run from ending in DeadlockError)
    cluster.sim.schedule(to_ns(1.0), lambda: None)
    return cluster, comm, proc, fired, caught


def _send_late(cluster, comm):
    """Rank 0 sends the victim a message, from a process of its own."""
    def sender(ep):
        yield from ep.isend(1, tag=0, payload="late")

    cluster.sim.spawn(sender(comm.endpoint(0)), name="late",
                      node=cluster.nodes[0])


@pytest.mark.parametrize("n_cp", [0, 2])
def test_kill_mid_poll_cancels_the_spin_job(n_cp):
    cluster, comm, proc, fired, _ = _poll_victim(n_cp)
    sim, cpu = cluster.sim, cluster.nodes[1].cpu
    sim.run(until=to_ns(0.0123))
    job = proc.cpu_job
    assert job is not None and job.step is not None and not job.cancelled
    sim.kill(proc)
    sim.run(until=to_ns(0.02))
    assert proc.state == ProcState.FAILED and proc.cpu_job is None
    assert job.cancelled and job not in cpu.runnable_jobs()
    assert cpu.runnable_count() == n_cp
    assert to_s(proc.cpu_time) == pytest.approx(0.0123 / (n_cp + 1), abs=QUANTUM)
    if n_cp == 0:
        # no live timer: no uncancelled event besides the keep-alive
        assert sum(not e[2].cancelled for e in sim._heap) == 1
    # a message for the dead poller, and its source dying, are no-ops
    _send_late(cluster, comm)
    comm.mark_rank_dead(0)
    sim.run(until=to_ns(0.05))
    assert fired == [None]  # done_signal fired exactly once


def test_inject_mid_poll_cancels_the_spin_job_and_the_process_goes_on():
    cluster, comm, proc, fired, caught = _poll_victim(n_cp=1)
    sim = cluster.sim
    sim.run(until=to_ns(0.0123))
    job = proc.cpu_job
    sim.inject(proc, RuntimeError("interrupt"))
    sim.run(until=to_ns(0.1))
    assert job.cancelled and len(caught) == 1
    assert proc.state == ProcState.DONE and proc.result == "survived"
    assert fired == ["survived"]
    # the abandoned poll's slot fires harmlessly when its message shows up
    _send_late(cluster, comm)
    sim.run(until=to_ns(0.2))
    assert comm._pollers[1] is None and fired == ["survived"]


def test_poller_on_a_dead_source_stops_spinning():
    cluster = make_cluster()
    comm = make_comm(cluster)
    seen = {}

    def receiver(ep):
        try:
            yield from ep.recv(0, tag=0)
        except RankFailedError as exc:
            seen["t"], seen["rank"] = cluster.sim.now, exc.rank

    proc = cluster.sim.spawn(receiver(comm.endpoint(1)), name="r1",
                             node=cluster.nodes[1])
    cluster.sim.schedule(to_ns(0.00325), lambda: comm.mark_rank_dead(0))
    cluster.sim.run()
    assert seen["rank"] == 0
    assert seen["t"] == 33 * STEP_NS  # next step end
    assert proc.cpu_time == 33 * STEP_NS


@pytest.mark.parametrize("n_cp", [0, 2])
def test_tracer_slices_tile_the_pollers_cpu_time(n_cp):
    cluster = make_cluster(observe=True)
    for _ in range(n_cp):
        cluster.nodes[1].start_competing()

    def program(ep):
        if ep.rank == 0:
            yield Sleep(0.0456)
            yield from ep.send(1, tag=0, payload="x")
        else:
            yield from ep.recv(0, tag=0)

    run_spmd(cluster, program)
    proc = rank_proc(cluster.sim, 1)
    everyone = [(start, end, name) for node, name, start, end
                in cluster.obs.slices if node == 1]
    mine = sorted(s for s in everyone if s[2] == "rank1")
    assert sum(end - start for start, end, _ in mine) == proc.cpu_time
    assert all(a[1] <= b[0] for a, b in zip(mine, mine[1:]))
    assert (sum(end - start for start, end, _ in everyone)
            == cluster.nodes[1].cpu.busy_time)
    # O(turns), not O(steps): the loop cut a slice per 100 us step
    assert len(mine) < 0.0456 / STEP / 10
