"""A state machine over one 2-node cluster: the lifecycle of simulated
processes, their CPU jobs, a node's competitors and its faults.

Rules spawn small programs on a node, fire signals, arm and cancel
timers, advance simulated time, start and stop competing load through
``LoadScript`` time triggers, and apply ``slowdown`` / ``crash`` /
``kill`` / ``inject`` through ``FailureScript`` — two of them place the
fault at the exact nanosecond a compute completes.  After every rule
the invariants below are checked against a model kept by the test.

Every program catches an injected fault at every step and goes on
with its next one, as
``test_fault_injection.py::test_inject_at_compute_completion_resumes_once``
does: the abandoned syscall's wakeup must resume nothing.
"""

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.config import ClusterSpec, NodeSpec
from repro.resilience import FailureScript, InjectedFault, TimeFault
from repro.simcluster import (
    BackgroundJob,
    Cluster,
    Compute,
    ComputeRows,
    LoadScript,
    Poll,
    ProcState,
    Sleep,
    TimeTrigger,
    Wait,
    to_ns,
    to_s,
)
from repro.sysmon import DmpiPs

SPEED = 1e6      # work units per second: one unit is 1000 ns of CPU
UNIT_NS = 1000
N_NODES = 2
TERMINAL = (ProcState.DONE, ProcState.FAILED)


def ms(lo):
    """Whole milliseconds from ``lo`` to 8, in ns: on this grid triggers
    on one node coincide and interleave; arbitrary ns reach the rest."""
    return st.integers(lo, 8).map(lambda k: k * 1_000_000)


nodes = st.integers(0, N_NODES - 1)
delays = ms(1) | st.integers(1, 30_000_000)    # ns, always in the future
sig_picks = st.integers(0, 2)                  # one of the 3 newest signals
step = st.one_of(
    st.tuples(st.just("compute"), st.integers(1, 30_000)),
    st.tuples(st.just("rows"), st.lists(st.integers(1, 8_000), min_size=1, max_size=4)),
    st.tuples(st.just("poll"), st.tuples(sig_picks, st.integers(100, 5_000))),
    st.tuples(st.just("sleep"), st.integers(0, 30_000)),
    st.tuples(st.just("wait"), sig_picks),
)
programs = st.lists(step, min_size=1, max_size=3)
faults = st.sampled_from(["slowdown", "crash", "kill", "inject"])


class Box:
    """What a program knows about itself: its process, once spawned."""

    proc = None
    started = False


class Lifecycle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cluster = Cluster(ClusterSpec(
            n_nodes=N_NODES, node=NodeSpec(speed=SPEED), observe=True))
        self.sim = self.cluster.sim
        self.ps = DmpiPs(self.cluster, interval=0.004, jitter=False)
        self.ps.start()
        self.signals = [self.sim.signal(f"s{i}") for i in range(3)]
        self.spawned = [[] for _ in range(N_NODES)]  # the model of Node.procs
        self.boxes = []
        self.done_fires = {}      # process name -> done_signal fires
        self.terminal = {}        # process name -> the terminal state seen
        self.violations = []
        self.timers = []          # [timer, due, fire times, cancelled]
        #: scheduled fault times (ns) per node: crash, and kill/inject
        self.crash_at = [[] for _ in range(N_NODES)]
        self.kill_at = [[] for _ in range(N_NODES)]

    # -- programs --------------------------------------------------------
    def _signal(self, pick):
        return self.signals[-1 - pick]

    def _program(self, box, steps):
        box.started = True
        sim, proc = self.sim, box.proc
        for kind, arg in steps:
            t0, c0 = sim.now, proc.cpu_time
            try:
                if kind == "compute":
                    yield Compute(arg)
                    want = arg * UNIT_NS
                    if sim.now - t0 < want or proc.cpu_time - c0 != want:
                        self._bad(proc, kind, t0, c0)
                elif kind == "rows":
                    stamps, clocks = yield ComputeRows(arg)
                    want = [w * UNIT_NS for w in arg]
                    if (stamps[0] != t0 or stamps[-1] != sim.now
                            or list(clocks[1:] - clocks[:-1]) != want
                            or any(stamps[1:] - stamps[:-1] < want)):
                        self._bad(proc, kind, t0, c0)
                elif kind == "poll":
                    sig = self._signal(arg[0])
                    yield Poll(arg[1], sig)
                    used, chunk = proc.cpu_time - c0, arg[1] * UNIT_NS
                    if not sig.fired or used < chunk or used % chunk:
                        self._bad(proc, kind, t0, c0)
                elif kind == "sleep":
                    yield Sleep(arg / SPEED)
                    if sim.now - t0 != arg * UNIT_NS or proc.cpu_time != c0:
                        self._bad(proc, kind, t0, c0)
                else:
                    sig = self._signal(arg)
                    value = yield Wait(sig)
                    if not sig.fired or value != sig.value or proc.cpu_time != c0:
                        self._bad(proc, kind, t0, c0)
            except InjectedFault:
                continue
        return len(steps)

    def _bad(self, proc, kind, t0, c0):
        self.violations.append(
            (proc.name, kind, t0, self.sim.now, c0, proc.cpu_time))

    def _spawn(self, node, steps):
        box = Box()
        name = f"p{len(self.boxes)}"
        # the generator runs only after spawn returns, so box.proc is set
        proc = self.sim.spawn(self._program(box, steps), name=name,
                              node=self.cluster.nodes[node], daemon=True)
        box.proc = proc
        self.boxes.append(box)
        self.spawned[node].append(proc)
        self.done_fires[name] = 0
        proc.done_signal.add_waiter(self._on_done, name)

    def _on_done(self, name, _value):
        self.done_fires[name] += 1

    def _fault(self, node, action, at, count=1, duration=0.0):
        self.cluster.install_script(FailureScript(time_faults=[TimeFault(
            time=to_s(at), node=node, action=action, count=count,
            duration=duration)]))
        if action == "crash":
            self.crash_at[node].append(at)
        elif action in ("kill", "inject"):
            self.kill_at[node].append(at)

    # -- rules -------------------------------------------------------------
    @rule(node=nodes, steps=programs)
    def spawn(self, node, steps):
        self._spawn(node, steps)

    @rule(pick=sig_picks)
    def fire_signal(self, pick):
        sig = self._signal(pick)
        if not sig.fired:
            sig.fire(len(self.signals))
            self.signals.append(self.sim.signal(f"s{len(self.signals)}"))

    @rule(delay=delays, cancel=st.booleans())
    def timer(self, delay, cancel):
        """Arm a timer, or cancel the oldest one still pending."""
        pending = [r for r in self.timers if not r[2] and not r[3]]
        if cancel and pending:
            pending[0][0].cancel()
            pending[0][3] = True
            return
        rec = [None, self.sim.now + delay, [], False]
        rec[0] = self.sim.schedule(delay, lambda: rec[2].append(self.sim.now))
        self.timers.append(rec)

    @rule(delta=ms(0) | st.integers(0, 40_000_000))
    def advance(self, delta):
        self.sim.run(until=self.sim.now + delta)

    @rule(node=nodes, start=delays, hold=st.none() | ms(1),
          count=st.integers(1, 2))
    def load(self, node, start, hold, count):
        at = self.sim.now + start
        triggers = [TimeTrigger(time=to_s(at), node=node, action="start", count=count)]
        if hold is not None:
            triggers.append(TimeTrigger(time=to_s(at + hold), node=node,
                                        action="stop", count=count))
        self.cluster.install_script(LoadScript(time_triggers=triggers))

    @rule(node=nodes, action=faults, delay=delays, count=st.integers(1, 2),
          duration=st.integers(0, 30_000_000))
    def fault(self, node, action, delay, count, duration):
        if action in ("kill", "inject") and not self.spawned[node]:
            return  # a kill needs a process spawned on the node
        self._fault(node, action, self.sim.now + delay, count, to_s(duration))

    @precondition(lambda self: any(
        n.cpu.runnable_count() == 0 for n in self.cluster.nodes))
    @rule(data=st.data(), work=st.integers(1, 30_000), action=faults,
          nap=st.integers(1, 30_000))
    def fault_at_compute_end(self, data, work, action, nap):
        """On an idle CPU, a fault scheduled before the compute is
        submitted lands at its end, ahead of its completion callback;
        running to that instant keeps later spawns off the CPU."""
        node = data.draw(st.sampled_from(
            [n.node_id for n in self.cluster.nodes if n.cpu.runnable_count() == 0]))
        end = self.sim.now + work * UNIT_NS
        self._fault(node, action, end)
        self._spawn(node, [("compute", work), ("sleep", nap)])
        self.sim.run(until=end)

    @rule(action=faults)
    def fault_at_pending_completion(self, action):
        """A fault at the instant a compute already on a CPU ends: after
        its slice end, at the same nanosecond."""
        for node in self.cluster.nodes:
            cpu, job = node.cpu, node.cpu._current
            if (job is None or isinstance(job.proc, BackgroundJob)
                    or job.step is not None or job.rows is not None):
                continue
            due = [t for t, _, tm in self.sim._heap if tm is cpu._slice_timer]
            if due and due[0] == cpu._slice_start + job.remaining:
                self._fault(node.node_id, action, due[0])
                return

    # -- invariants --------------------------------------------------------
    def _procs(self):
        return [p for procs in self.spawned for p in procs]

    @invariant()
    def no_syscall_returns_early_or_twice(self):
        assert self.violations == []

    @invariant()
    def terminal_states_absorb(self):
        for p in self._procs():
            if p.name in self.terminal:
                assert p.state == self.terminal[p.name], p
            elif p.state in TERMINAL:
                self.terminal[p.name] = p.state

    @invariant()
    def done_signal_fires_once_per_finished_process(self):
        for p in self._procs():
            assert self.done_fires[p.name] == (p.state in TERMINAL), p

    @invariant()
    def no_cpu_job_outlives_its_process(self):
        for node in self.cluster.nodes:
            for job in node.cpu.runnable_jobs():
                assert not job.cancelled
                if isinstance(job.proc, BackgroundJob):
                    assert node.background.get(job.proc.name) is job.proc
                else:
                    assert job.proc.state not in TERMINAL and job.proc.cpu_job is job
        for box in self.boxes:
            p = box.proc
            if p.state in TERMINAL:
                assert p.cpu_job is None
            elif box.started:
                # runnable exactly while it has a job on its node's CPU
                on_cpu = p.cpu_job in p.node.cpu.runnable_jobs()
                assert (p.state in (ProcState.READY, ProcState.RUNNING)) == on_cpu, p

    @invariant()
    def slices_never_overlap_and_sum_to_busy_time(self):
        for node in self.cluster.nodes:
            spans = sorted((s, e) for n, _, s, e in self.cluster.obs.slices
                           if n == node.node_id)
            assert all(s < e <= self.sim.now for s, e in spans)
            assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))
            assert sum(e - s for s, e in spans) == node.cpu.busy_time

    @invariant()
    def competitor_names_are_unique_and_live(self):
        for node in self.cluster.nodes:
            names = [j.proc.name for j in node.cpu.runnable_jobs()
                     if isinstance(j.proc, BackgroundJob)]
            assert len(names) == len(set(names)) == len(node.background)
            assert set(names) == set(node.background)
            for script in self.cluster.scripts:
                for bg in script._held(node.node_id):
                    assert node.background.get(bg.name) is bg

    @invariant()
    def node_procs_are_the_processes_spawned_there(self):
        for node, spawned in zip(self.cluster.nodes, self.spawned):
            assert len(node.procs) == len(spawned)
            assert all(a is b for a, b in zip(node.procs, spawned))

    @invariant()
    def dmpi_ps_counts_live_processes_and_runnable_competitors(self):
        for node, spawned in zip(self.cluster.nodes, self.spawned):
            live = sum(p.state not in TERMINAL for p in spawned)
            competitors = sum(isinstance(j.proc, BackgroundJob)
                              for j in node.cpu.runnable_jobs())
            assert self.ps._measure(node.node_id) == live + competitors
            assert self.ps.app_alive(node.node_id) == (live > 0 or not spawned)

    @invariant()
    def fault_record_is_the_first_fault_applied(self):
        now = self.sim.now
        for node in self.cluster.nodes:
            n = node.node_id
            crash = min((t for t in self.crash_at[n] if t <= now), default=None)
            kill = min((t for t in self.kill_at[n] if t <= now), default=None)
            assert (node.crashed_at, node.killed_at) == (crash, kill)
            assert node.failed == (crash is not None or kill is not None)
            samples = [to_ns(t) for t, _ in self.ps.history(n)]
            if crash is not None:  # only a crash stops the node's daemon
                assert all(t <= crash for t in samples)
            elif samples:
                assert now - samples[-1] < to_ns(self.ps.interval)

    @invariant()
    def timers_fire_once_at_their_time_unless_cancelled(self):
        for _, due, fired, cancelled in self.timers:
            assert fired == ([] if cancelled or due > self.sim.now else [due])


Lifecycle.TestCase.settings = settings(
    max_examples=40, stateful_step_count=120, deadline=None, derandomize=True,
    database=None, suppress_health_check=[HealthCheck.too_slow])
TestLifecycle = Lifecycle.TestCase
