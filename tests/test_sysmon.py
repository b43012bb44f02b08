"""Tests for the monitoring substrate: dmpi_ps vs vmstat semantics,
/PROC quantization, and hrtimer min-filtering."""

import numpy as np
import pytest

from repro.config import ClusterSpec, NodeSpec
from repro.errors import SimulationError
from repro.simcluster import Cluster, Compute, Sleep, to_ns, to_s
from repro.sysmon import DmpiPs, HrTimer, ProcClock, Vmstat, min_filter


def make_cluster(n=2, speed=100.0):
    return Cluster(ClusterSpec(n_nodes=n, node=NodeSpec(speed=speed)))


def spin(duration_work):
    yield Compute(duration_work)


def test_dmpi_ps_counts_app_plus_competitors():
    cluster = make_cluster()
    ps = DmpiPs(cluster, interval=1.0, jitter=False)
    cluster.nodes[0].start_competing()
    cluster.nodes[0].start_competing()

    app = cluster.sim.spawn(spin(1000.0), name="app", node=cluster.nodes[0])
    ps.start()
    cluster.sim.run_all([app])
    # app + 2 competitors
    assert ps.load(0) == 3
    # node 1 idle, no process spawned there
    assert ps.load(1) == 0


def test_dmpi_ps_includes_blocked_monitored_app():
    """The monitored app is counted even while blocked at a 'receive'
    (here: a sleep) — the fix for the vmstat unreliability."""
    cluster = make_cluster()
    ps = DmpiPs(cluster, interval=0.5, jitter=False)

    def app_prog():
        yield Sleep(3.0)  # voluntarily off the run queue

    app = cluster.sim.spawn(app_prog(), name="app", node=cluster.nodes[0])
    ps.start()
    cluster.sim.run_all([app])
    samples = [v for t, v in ps.history(0) if t < 3.0]
    assert samples and all(v >= 1 for v in samples)


def test_vmstat_misses_blocked_process():
    """vmstat samples while the app is blocked report zero load —
    the unreliability the paper describes."""
    cluster = make_cluster()
    vm = Vmstat(cluster, interval=0.5)

    def app_prog():
        yield Sleep(3.0)

    app = cluster.sim.spawn(app_prog(), name="app", node=cluster.nodes[0])
    vm.start()
    cluster.sim.run_all([app])
    samples = [v for _, v in vm.history(0)]
    assert samples and all(v == 0 for v in samples)


def test_dmpi_ps_detects_load_change_within_interval():
    cluster = make_cluster()
    ps = DmpiPs(cluster, interval=1.0, jitter=False)

    def app_prog():
        yield Compute(1000.0)  # long-running

    app = cluster.sim.spawn(app_prog(), name="app", node=cluster.nodes[0])
    ps.start()
    cluster.sim.schedule(to_ns(3.5), lambda: cluster.nodes[0].start_competing())
    cluster.sim.run_all([app])
    hist = dict(ps.history(0))
    # at t=3s the load is still 1; by t=5s it must read 2
    assert hist[3.0] == 1
    assert hist[5.0] == 2


def test_dmpi_ps_interval_validation():
    cluster = make_cluster()
    with pytest.raises(SimulationError):
        DmpiPs(cluster, interval=0.0)


def test_dmpi_ps_double_start_rejected():
    cluster = make_cluster()
    ps = DmpiPs(cluster)
    ps.start()
    with pytest.raises(SimulationError):
        ps.start()


def test_proc_clock_quantizes_down():
    cluster = make_cluster(1, speed=100.0)
    app = cluster.sim.spawn(spin(2.37 * 100.0), name="app", node=cluster.nodes[0])
    cluster.sim.run_all([app])
    clock = ProcClock(app, granularity=0.010)
    assert app.cpu_time == to_ns(2.37)
    assert clock.read() == pytest.approx(2.37, abs=0.010)
    assert clock.read() <= to_s(app.cpu_time)


def test_proc_clock_excludes_competing_time():
    """/PROC CPU time is unaffected by a competing process even though
    wallclock doubles — exactly why the paper prefers it."""
    cluster = make_cluster(1, speed=100.0)
    cluster.nodes[0].start_competing()
    app = cluster.sim.spawn(spin(100.0), name="app", node=cluster.nodes[0])
    cluster.sim.run_all([app])
    assert to_s(cluster.sim.now) == pytest.approx(2.0, rel=1e-2)  # wallclock: 2x
    clock = ProcClock(app, granularity=0.010)
    assert clock.read() == pytest.approx(1.0, abs=0.011)  # CPU: true 1 s


def test_proc_clock_validation():
    cluster = make_cluster(1)
    app = cluster.sim.spawn(spin(1.0), name="app", node=cluster.nodes[0])
    with pytest.raises(SimulationError):
        ProcClock(app, granularity=0)
    cluster.sim.run_all([app])


def test_hrtimer_interval_includes_competitor_time():
    """Wallclock intervals on a loaded node overestimate true compute
    time — the gethrtime hazard."""
    cluster = make_cluster(1, speed=100.0)
    cluster.nodes[0].start_competing()
    timer = HrTimer(cluster.sim)
    measured = {}

    def app_prog():
        t0 = timer.read()
        yield Compute(100.0)
        t1 = timer.read()
        measured["dt"] = timer.interval(t0, t1)

    app = cluster.sim.spawn(app_prog(), name="app", node=cluster.nodes[0])
    cluster.sim.run_all([app])
    assert measured["dt"] == pytest.approx(2.0, rel=2e-2)  # ~2x the true 1 s


def test_hrtimer_interval_backwards_raises():
    cluster = make_cluster(1)
    timer = HrTimer(cluster.sim)
    with pytest.raises(SimulationError):
        timer.interval(2, 1)


def test_vectorised_reads_equal_the_scalar_ones_bit_for_bit():
    """``HrTimer.intervals`` / ``ProcClock.deltas`` over a row chain's
    boundaries are what ``interval`` / ``read`` gave around each row."""
    cluster = make_cluster(1)
    rng = np.random.default_rng(5)

    class Proc:
        cpu_time = 0

    timer, proc = HrTimer(cluster.sim), Proc()
    clock = ProcClock(proc, granularity=0.010)
    for scale in (1e-5, 1e-3, 0.5):
        stamps = np.rint((np.cumsum(rng.random(500) * scale) + rng.random() * 100) * 1e9)
        cpus = np.rint(np.cumsum(rng.random(500) * scale) * 1e9)
        stamps, cpus = stamps.astype(np.int64).tolist(), cpus.astype(np.int64).tolist()
        reads = []
        for c in cpus:
            proc.cpu_time = c
            reads.append(clock.read())
        hr = [timer.interval(a, b) for a, b in zip(stamps, stamps[1:])]
        pr = [b - a for a, b in zip(reads, reads[1:])]
        assert timer.intervals(stamps).tobytes() == np.array(hr).tobytes()
        assert clock.deltas(cpus).tobytes() == np.array(pr).tobytes()
    with pytest.raises(SimulationError):
        timer.intervals([2, 1])


def test_min_filter_removes_spikes():
    samples = [
        [1.0, 1.1, 5.0],   # cycle 0: iteration 2 hit a context switch
        [1.0, 4.0, 1.2],   # cycle 1: iteration 1 hit one
        [3.0, 1.1, 1.2],
    ]
    out = min_filter(samples)
    assert np.allclose(out, [1.0, 1.1, 1.2])


def test_min_filter_validation():
    with pytest.raises(SimulationError):
        min_filter([])
    with pytest.raises(SimulationError):
        min_filter([[[1.0]]])


def test_min_filter_single_cycle_is_identity():
    out = min_filter([[2.0, 3.0]])
    assert np.allclose(out, [2.0, 3.0])


def test_sub_quantum_iterations_min_filter_recovers_true_time():
    """End-to-end Figure-7 mechanism: iterations shorter than the
    scheduling quantum on a loaded node give noisy wallclock times, but
    the minimum over several cycles recovers the unloaded time."""
    cluster = make_cluster(1, speed=100.0)  # quantum 10 ms
    cluster.nodes[0].start_competing()
    timer = HrTimer(cluster.sim)
    true_work = 0.4  # 4 ms per iteration at speed 100: sub-quantum
    n_iters, n_cycles = 10, 5
    samples = []

    def app_prog():
        for _c in range(n_cycles):
            row = []
            for _i in range(n_iters):
                t0 = timer.read()
                yield Compute(true_work)
                t1 = timer.read()
                row.append(timer.interval(t0, t1))
            samples.append(row)

    app = cluster.sim.spawn(app_prog(), name="app", node=cluster.nodes[0])
    cluster.sim.run_all([app])
    flat = np.array(samples)
    # Noise exists: some measurement must exceed the true 4 ms by ~a quantum
    assert flat.max() > 0.004 + 0.005
    # but the min-filter estimate is close to the truth for most iterations
    est = min_filter(samples)
    assert np.median(est) == pytest.approx(0.004, rel=0.15)
