"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.simcluster import (
    Compute,
    ProcState,
    Simulator,
    Sleep,
    Wait,
    WaitAny,
    to_ns,
)
from repro.simcluster.kernel import SimProcess
from repro.simcluster.syscalls import Fork


def test_empty_run_returns_zero():
    sim = Simulator()
    assert sim.run() == 0


def test_schedule_order_is_time_then_fifo():
    sim = Simulator()
    order = []
    sim.schedule(2, lambda: order.append("b"))
    sim.schedule(1, lambda: order.append("a"))
    sim.schedule(2, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 2


def test_cancelled_timer_does_not_fire():
    sim = Simulator()
    fired = []
    t = sim.schedule(1, lambda: fired.append(1))
    t.cancel()
    sim.run()
    assert fired == []


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_sleep_advances_time():
    sim = Simulator()

    def prog():
        yield Sleep(1.5)
        yield Sleep(0.5)
        return "done"

    p = sim.spawn(prog(), name="sleeper")
    sim.run()
    assert p.state == ProcState.DONE
    assert p.result == "done"
    assert sim.now == to_ns(2.0)


def test_process_return_value_captured():
    sim = Simulator()

    def prog():
        yield Sleep(0.1)
        return 42

    p = sim.spawn(prog(), name="p")
    sim.run()
    assert p.result == 42


def test_signal_wait_and_fire():
    sim = Simulator()
    sig = sim.signal("s")
    got = []

    def waiter():
        value = yield Wait(sig)
        got.append(value)

    sim.spawn(waiter(), name="w")
    sim.schedule(3, lambda: sig.fire("hello"))
    sim.run()
    assert got == ["hello"]
    assert sim.now == 3


def test_wait_on_already_fired_signal_resumes_immediately():
    sim = Simulator()
    sig = sim.signal("s")
    sig.fire(7)

    def waiter():
        value = yield Wait(sig)
        return value

    p = sim.spawn(waiter(), name="w")
    sim.run()
    assert p.result == 7


def test_signal_double_fire_raises():
    sim = Simulator()
    sig = sim.signal()
    sig.fire()
    with pytest.raises(SimulationError):
        sig.fire()


def test_wait_any_returns_first_index():
    sim = Simulator()
    s1, s2 = sim.signal("a"), sim.signal("b")

    def waiter():
        idx, value = yield WaitAny([s1, s2])
        return (idx, value)

    p = sim.spawn(waiter(), name="w")
    sim.schedule(2, lambda: s2.fire("second"))
    sim.schedule(5, lambda: s1.fire("first"))
    sim.run()
    assert p.result == (1, "second")


def test_deadlock_detection_lists_blocked():
    sim = Simulator()
    sig = sim.signal()

    def stuck():
        yield Wait(sig)

    sim.spawn(stuck(), name="stuck-proc")
    with pytest.raises(DeadlockError) as exc:
        sim.run()
    assert "stuck-proc" in str(exc.value)


def test_daemon_does_not_trigger_deadlock():
    sim = Simulator()
    sig = sim.signal()

    def daemon():
        yield Wait(sig)

    sim.spawn(daemon(), name="d", daemon=True)
    sim.run()  # no DeadlockError


def test_compute_without_node_raises():
    sim = Simulator()

    def prog():
        yield Compute(100.0)

    sim.spawn(prog(), name="nonode")
    with pytest.raises(SimulationError):
        sim.run()


def test_yielding_garbage_raises():
    sim = Simulator()

    def prog():
        yield "not a syscall"

    sim.spawn(prog(), name="bad")
    with pytest.raises(SimulationError):
        sim.run()


def test_process_exception_propagates_and_marks_failed():
    sim = Simulator()

    def prog():
        yield Sleep(1.0)
        raise ValueError("boom")

    p = sim.spawn(prog(), name="crash")
    with pytest.raises(ValueError):
        sim.run()
    assert p.state == ProcState.FAILED
    assert isinstance(p.error, ValueError)


def test_fork_starts_child():
    sim = Simulator()
    log = []

    def child():
        yield Sleep(1.0)
        log.append("child")

    def parent():
        c = yield Fork(SimProcess("c", child()))
        yield Wait(c.done_signal)
        log.append("parent")

    sim.spawn(parent(), name="parent")
    sim.run()
    assert log == ["child", "parent"]


def test_done_signal_fires_with_result():
    sim = Simulator()

    def prog():
        yield Sleep(1.0)
        return "ret"

    def watcher(p):
        value = yield Wait(p.done_signal)
        return value

    p = sim.spawn(prog(), name="p")
    w = sim.spawn(watcher(p), name="w")
    sim.run()
    assert w.result == "ret"


def test_run_until_stops_early():
    sim = Simulator()
    fired = []
    sim.schedule(10, lambda: fired.append(1))
    t = sim.run(until=5)
    assert t == 5
    assert fired == []


@pytest.mark.parametrize("n_dead", [64, 65])
def test_run_until_ignores_tombstones_whether_or_not_compacted(n_dead):
    """One live event at t=1 and ``n_dead`` cancelled timers at t=10:
    past the compaction floor (65) the tombstones are gone before the
    run, below it (64) they are still queued — ``run(until=5)`` must not
    tell the two apart.  It used to return 5 for 64 and 1 for 65."""
    sim = Simulator()
    sim.schedule(1, lambda: None)
    for _ in range(n_dead):
        sim.schedule(10, lambda: None).cancel()
    assert len(sim._heap) == (1 + n_dead if n_dead == 64 else 1)
    assert sim.run(until=5) == 1
    assert sim.now == 1 and not sim._heap and sim._heap_cancels == 0


def test_a_sum_of_delays_fires_at_the_exact_instant():
    """Integer time: a deadline reached as a sum of delays is the sum
    (float seconds made 0.1 + 0.2 land one ulp past 0.3)."""
    sim = Simulator()
    seen = []
    sim.schedule(to_ns(0.1), lambda: sim.schedule(to_ns(0.2), lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [to_ns(0.3)] and type(seen[0]) is int


def test_determinism_same_seed_same_trace():
    def build():
        sim = Simulator()
        order = []
        for i in range(50):
            sim.schedule((i * 7919) % 13, lambda i=i: order.append(i))
        sim.run()
        return order

    assert build() == build()


# -- one heap: order, cancellation, compaction, vs the reference loop --------

import itertools
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcluster import kernel
from tests.oracles.kernel_reference import ReferenceSimulator

#: the kernel and its oracle; the ids date from when src/ held two engines
ENGINES = pytest.mark.parametrize("engine", [
    pytest.param(Simulator, id="calendar"),
    pytest.param(ReferenceSimulator, id="reference"),
])


@ENGINES
def test_zero_delay_fifo_interleaves_with_timed(engine):
    # a timed event landing at the same instant as queued call_soon
    # events must honour the global seq order
    sim = engine()
    order = []
    sim.schedule(1, lambda: order.append("timed"))

    def kickoff():
        sim.call_soon(lambda: order.append("soon"))

    sim.schedule(1, lambda: kickoff())
    sim.run()
    assert order == ["timed", "soon"]


def test_call_soon_runs_in_fifo_order():
    sim = Simulator()
    order = []
    for i in range(10):
        sim.call_soon(lambda i=i: order.append(i))
    sim.run()
    assert order == list(range(10))


def test_cancelled_ready_event_skipped():
    sim = Simulator()
    fired = []
    t = sim.call_soon(lambda: fired.append(1))
    sim.call_soon(lambda: fired.append(2))
    t.cancel()
    sim.run()
    assert fired == [2]


def test_tombstone_compaction_bounds_heap():
    # the leak regression: schedule-and-cancel churn must not grow the
    # heap without bound (the pre-dynkern engine kept every tombstone
    # until its deadline)
    sim = Simulator()
    churn = 50_000
    live = sim.schedule(10**18, lambda: None)  # one live far-future timer

    def pump(remaining):
        if remaining:
            t = sim.schedule(10**15, lambda: None)
            t.cancel()
            sim.schedule(1, lambda: pump(remaining - 1))

    pump(churn)
    sim.run(until=10**9)
    # live timers: the far-future sentinel (a drained pump leaves no pending
    # tick).  Compaction keeps tombstones below half the heap + floor.
    assert len(sim._heap) < 200, len(sim._heap)
    live.cancel()


def test_reference_engine_keeps_tombstones():
    # documents the leak compaction fixes (and pins the oracle to the
    # original behaviour)
    sim = ReferenceSimulator()
    for _ in range(1000):
        sim.schedule(10**15, lambda: None).cancel()
    sim.run(until=10**9)
    assert len(sim._heap) == 1000


@ENGINES
def test_engines_agree_on_event_order(engine):
    # a mixed workload of timed events, zero-delay cascades and cancels
    # must produce the identical execution order on the oracle
    sim = engine()
    order = []

    def cascade(tag, depth):
        order.append((tag, depth, sim.now))
        if depth:
            sim.call_soon(cascade, tag, depth - 1)

    handles = []
    for i in range(20):
        delay = (i * 7919) % 13
        handles.append(sim.schedule(delay, cascade, i, i % 4))
    for i in (3, 7, 11):
        handles[i].cancel()
    sim.run()
    if engine is Simulator:
        test_engines_agree_on_event_order.got = order
    else:
        assert order == test_engines_agree_on_event_order.got


# a scheduling program: nested lists of ("schedule", delay, body) /
# ("soon", body) / ("cancel", k) steps, where body runs inside the
# event's callback; ("run", dt) resumes the loop from the top level
_DELAYS = st.sampled_from([0, 0, 5, 5, 10]) | st.integers(0, 20)
_CANCEL = st.tuples(st.just("cancel"), st.integers(0, 63))


def _steps(bodies, *extra):
    return st.lists(st.one_of(
        st.tuples(st.just("schedule"), _DELAYS, bodies),
        st.tuples(st.just("soon"), bodies),
        _CANCEL, *extra), max_size=6)


_PROGRAMS = _steps(st.recursive(st.just([]), _steps, max_leaves=10),
                   st.tuples(st.just("run"), st.integers(0, 15)))


def _play(engine, program):
    sim = engine()
    order, handles, labels = [], [], itertools.count()
    # run(until) advances to `until` only while something is queued
    # past it, and whether a queue of nothing but tombstones counts is
    # the one thing compaction changes; a live far-future event (out
    # of the random cancels' reach) takes that out of the comparison
    keep_alive = sim.schedule(10**18, lambda: None)

    def execute(steps):
        for step in steps:
            if step[0] == "schedule":
                handles.append(sim.schedule(step[1], fire, next(labels), step[2]))
            elif step[0] == "soon":
                handles.append(sim.call_soon(fire, next(labels), step[1]))
            elif step[0] == "cancel" and handles:
                handles[step[1] % len(handles)].cancel()  # fired or pending
            elif step[0] == "run":
                sim.run(until=sim.now + step[1])
            if engine is Simulator:
                assert sim._heap_cancels == sum(e[2].cancelled for e in sim._heap)

    def fire(label, body):
        order.append((label, sim.now))
        execute(body)

    execute(program)
    keep_alive.cancel()
    sim.run()
    assert not sim._heap
    return order, sim.now, sim.n_events


@settings(max_examples=300, deadline=None)
@given(_PROGRAMS)
def test_random_programs_match_the_reference_loop(program):
    # a 2-tombstone floor makes compaction fire inside these small
    # programs, including from a callback while run() holds the heap
    with mock.patch.object(kernel, "_COMPACT_MIN_CANCELLED", 2):
        got = _play(Simulator, program)
    assert got == _play(ReferenceSimulator, program)


def test_args_reach_the_callback():
    sim = Simulator()
    got = []
    sim.schedule(1, lambda *a: got.append(("timed", a)), 1, None)
    sim.call_soon(lambda *a: got.append(("soon", a)), "x")
    sig = sim.signal("s")
    sig.add_waiter(lambda *a: got.append(("waiter", a)), "bound", 2)
    sig.add_waiter(lambda *a: got.append(("bare", a)))
    sim.schedule(2, sig.fire, "value")
    sim.run()
    sig.add_waiter(lambda *a: got.append(("late", a)), "bound")  # already fired
    sim.run()
    assert got == [("soon", ("x",)), ("timed", (1, None)),
                   ("waiter", ("bound", 2, "value")), ("bare", ("value",)),
                   ("late", ("bound", "value"))]


def test_discard_waiter_removes_only_the_bare_registration():
    sim = Simulator()
    got = []

    def cb(*a):
        got.append(a)

    sig = sim.signal("s")
    sig.add_waiter(cb, "bound")
    sig.add_waiter(cb)
    sig.add_waiter(cb)
    sig.discard_waiter(cb)
    sig.fire("v")
    sim.run()
    assert got == [("bound", "v"), ("v",)]


def test_schedule_rejects_nan_delay():
    # NaN slipped past `delay < 0`, ran before everything and left
    # sim.now = nan
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), lambda: None)
    assert not sim._heap


def test_sleep_rejects_nan_duration():
    with pytest.raises(ValueError):
        Sleep(float("nan"))


def test_cluster_spec_has_no_engine_switch():
    from repro.config import ClusterSpec

    with pytest.raises(TypeError):
        ClusterSpec(n_nodes=2, kernel="reference")


def test_kill_mid_compute_cancels_cpu_job():
    """A process killed while its Compute is in flight must have that
    CPU job cancelled: the stale completion used to clobber the
    terminal state back to BLOCKED, resume the closed generator, and
    fire ``done_signal`` a second time."""
    from repro.config import ClusterSpec
    from repro.simcluster import Cluster

    cluster = Cluster(ClusterSpec(n_nodes=1))
    sim = cluster.sim
    node = cluster.nodes[0]

    def victim():
        yield Compute(5e8)  # ~5 simulated seconds; killed at t=1
        return "unreachable"

    def bystander():
        # outlives the victim's would-be completion, so a stale CPU
        # callback would fire while the loop is still running
        yield Sleep(20.0)
        return "ok"

    p = sim.spawn(victim(), name="victim", node=node)
    q = sim.spawn(bystander(), name="bystander", node=node)
    sim.schedule(to_ns(1.0), lambda: sim.kill(p))
    sim.run_all([p, q], tolerate=lambda pr: pr is p)
    assert p.state == ProcState.FAILED
    assert p.cpu_job is None
    assert q.result == "ok"
    # the node's CPU holds no orphaned work for the dead process
    assert all(job.proc is not p for job in node.cpu.runnable_jobs())
