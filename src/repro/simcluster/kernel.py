"""Discrete-event simulation kernel.

The kernel owns virtual time and the event queue.  Simulated processes
are Python generators that yield :mod:`~repro.simcluster.syscalls`
request objects; the kernel services each request and resumes the
generator with the result.  CPU scheduling itself lives in
:mod:`~repro.simcluster.cpu` — the kernel only knows how to park a
process and wake it later.

Design notes
------------
* Events are ``(time, seq)``-ordered callbacks; ``seq`` is a global
  monotone counter so simultaneous events run in schedule order and the
  simulation is fully deterministic.
* **Two-lane scheduling** (dynkern): most events are zero-delay resumes
  — deferred completions, signal wakeups, spawn kicks — so the default
  :class:`Simulator` keeps two structures: an O(1) FIFO *ready lane*
  (a deque) for events scheduled at the current instant, and a heap for
  timed events.  The lanes merge by exact ``(time, seq)`` comparison,
  so the execution order is identical to a single global heap (the
  original single-heap engine is preserved verbatim as
  :class:`~repro.simcluster.kernel_reference.ReferenceSimulator` and
  the equivalence is property-tested byte-for-byte on exported traces).
  Internal hot paths post pre-bound callbacks (:meth:`Simulator._post1`
  /``_post2``) instead of allocating a closure per event.
* Cancellation is done with tombstones (:class:`Timer` handles), the
  standard heapq idiom, so cancelling is O(1).  The simulator counts
  tombstones still sitting in the heap and **compacts** — filters and
  re-heapifies in place — when more than half the heap is cancelled
  (and it is past a small size floor), so heartbeat-style
  schedule/cancel churn can no longer grow the heap without bound.
* Deadlock detection: if the queue drains while registered processes
  are still blocked, :class:`~repro.errors.DeadlockError` is raised
  listing them — the simulated analogue of a hung MPI job.
* Engine selection: :func:`make_simulator` picks the engine from an
  explicit argument, else ``DYNMPI_KERNEL`` (``calendar`` |
  ``reference``), defaulting to ``calendar``; clusters thread
  :attr:`repro.config.ClusterSpec.kernel` through it.
* Schedule perturbation (:class:`Perturb`, ``DYNMPI_PERTURB=<seed>``)
  flips tie-breaks that real MPI leaves *undefined* — today the choice
  among queued wildcard-receive candidates from distinct sources
  (see :meth:`repro.mpi.comm.SimComm._try_match`).  The queue's
  ``(time, seq)`` order is deliberately **not** perturbed: same-time
  event order is part of this kernel's determinism contract (the trace
  exporters break timestamp ties by emission seq), not an ordering the
  MPI standard leaves open.  A program is schedule-clean exactly when
  its exported trace is byte-identical under every perturbation seed.
"""

from __future__ import annotations

import heapq
import os
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

from ..errors import DeadlockError, SimulationError
from .syscalls import Compute, Fork, Poll, Sleep, Syscall, Wait, WaitAny

__all__ = [
    "Perturb", "ProcState", "Signal", "SimProcess", "Simulator", "Timer",
    "make_simulator", "perturb_from_env",
]

#: sentinel for "no bound argument" on a Timer (cheaper than None,
#: which is a legitimate argument value)
_NO_ARG = object()

#: tombstone compaction floor: no compaction below this many cancelled
#: heap entries, so tiny simulations never pay a heapify
_COMPACT_MIN_CANCELLED = 64


class Perturb:
    """Deterministic schedule-perturbation state (dynrace's dynamic
    cross-check, ``docs/ANALYSIS.md`` §5).

    ``choose(n, key)`` is a pure function of ``(seed, key)`` — an
    FNV-1a hash, the same stable-hash idiom as
    :func:`repro.simcluster.rng._stable_hash` — so a perturbed run is
    itself fully reproducible: the property being tested is *trace
    invariance across seeds*, not determinism of a single seed.
    """

    __slots__ = ("seed",)

    def __init__(self, seed: int):
        self.seed = int(seed)

    def choose(self, n: int, key: tuple) -> int:
        """Pick an index in ``[0, n)`` from the perturbation seed and a
        tuple identifying the tie (envelope seqs, rank, tag...)."""
        h = (2166136261 ^ (self.seed & 0xFFFFFFFF)) * 16777619 & 0xFFFFFFFF
        for part in key:
            for byte in repr(part).encode("utf-8"):
                h = ((h ^ byte) * 16777619) & 0xFFFFFFFF
        return h % n


def perturb_from_env() -> Optional[Perturb]:
    """Read ``DYNMPI_PERTURB``: unset/empty means off, any integer
    (including 0) arms perturbation with that seed."""
    raw = os.environ.get("DYNMPI_PERTURB", "").strip()
    if not raw:
        return None
    try:
        seed = int(raw)
    except ValueError:
        raise SimulationError(
            f"DYNMPI_PERTURB must be an integer seed, got {raw!r}"
        ) from None
    return Perturb(seed)


class ProcState:
    """Process lifecycle states (string constants, cheap to compare)."""

    NEW = "new"
    READY = "ready"      # runnable: on a CPU run queue
    RUNNING = "running"  # currently holding the CPU slice
    BLOCKED = "blocked"  # waiting on a signal or sleeping
    DONE = "done"
    FAILED = "failed"


class Timer:
    """Handle to a scheduled callback; ``cancel()`` tombstones it.

    ``a``/``b`` are optional pre-bound call arguments (the internal
    no-closure posting fast path); ``seq`` is the event's global order
    stamp (stored on the Timer only for ready-lane events — timed
    events carry it in their heap triple), and a non-None ``sim``
    marks a timer currently sitting in that simulator's heap, so a
    cancel feeds its tombstone accounting.
    """

    __slots__ = ("fn", "a", "b", "seq", "cancelled", "sim")

    def __init__(self, fn: Callable[..., None]):
        self.fn = fn
        self.a = _NO_ARG
        self.b = _NO_ARG
        self.cancelled = False
        self.sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        if self.sim is not None:
            self.sim._note_heap_cancel()


class Signal:
    """A one-shot waitable condition carrying a value.

    Processes block on a signal with the :class:`~.syscalls.Wait`
    syscall; :meth:`fire` wakes all waiters at the current time.  A
    signal may be re-armed with :meth:`reset` (used by mailboxes).
    """

    __slots__ = ("sim", "fired", "value", "_waiters", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self.fired = False
        self.value: Any = None
        self._waiters: list[Callable[[Any], None]] = []

    def fire(self, value: Any = None) -> None:
        if self.fired:
            raise SimulationError(f"signal {self.name!r} fired twice")
        self.fired = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        sim = self.sim
        for fn, a in waiters:
            if a is _NO_ARG:
                sim._post1(fn, value)
            else:
                sim._post2(fn, a, value)

    def reset(self) -> None:
        self.fired = False
        self.value = None

    def add_waiter(self, cb: Callable[[Any], None]) -> None:
        if self.fired:
            self.sim._post1(cb, self.value)
        else:
            self._waiters.append((cb, _NO_ARG))

    def _add_waiter2(self, fn: Callable[[Any, Any], None], a: Any) -> None:
        """``add_waiter(lambda v: fn(a, v))`` without the closure."""
        if self.fired:
            self.sim._post2(fn, a, self.value)
        else:
            self._waiters.append((fn, a))

    def discard_waiter(self, cb: Callable[[Any], None]) -> None:
        for i, (fn, a) in enumerate(self._waiters):
            if fn == cb and a is _NO_ARG:
                del self._waiters[i]
                return


class SimProcess:
    """A simulated process: a generator plus scheduling bookkeeping.

    ``node`` is assigned when the process is registered with a node
    (see :class:`~repro.simcluster.node.Node`); processes that never
    compute (pure bookkeeping daemons) may run detached with
    ``node=None`` but must not yield :class:`Compute`.
    """

    __slots__ = (
        "name", "gen", "node", "state", "cpu_time", "result", "error",
        "done_signal", "sim", "daemon", "_wait_cbs", "cpu_job",
    )

    def __init__(self, name: str, gen: Generator[Syscall, Any, Any], *, daemon: bool = False):
        self.name = name
        self.gen = gen
        self.node = None  # set by Node.attach / launcher
        self.state = ProcState.NEW
        self.cpu_time = 0.0  # CPU seconds consumed (the /PROC counter)
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.done_signal: Optional[Signal] = None
        self.sim: Optional[Simulator] = None
        self.daemon = daemon
        self._wait_cbs: list[tuple[Signal, Callable]] = []
        self.cpu_job = None  # in-flight CPU Job while a Compute/Poll is outstanding

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimProcess {self.name} {self.state}>"


class Simulator:
    """The event loop (two-lane calendar engine; see module docstring).

    Typical use::

        sim = Simulator()
        sim.spawn(my_process_generator(), name="p0")
        sim.run()
    """

    engine = "calendar"

    def __init__(self, *, perturb: Optional[int] = None) -> None:
        self.now = 0.0
        #: timed events: (time, seq, Timer) triples, heap-ordered
        self._heap: list[tuple[float, int, Timer]] = []
        #: zero-delay events at the current instant, FIFO (seq order)
        self._ready: deque[Timer] = deque()
        #: cancelled entries still sitting in ``_heap`` (tombstones);
        #: drives compaction
        self._heap_cancels = 0
        self._seq = 0
        self.processes: list[SimProcess] = []
        self.n_events = 0
        self._stopped = False
        self._watchdogs: list[Callable[[SimProcess, Syscall], None]] = []
        #: schedule-perturbation state, or None when off.  An explicit
        #: seed wins; ``None`` defers to ``DYNMPI_PERTURB`` (the same
        #: explicit-beats-environment convention as ClusterSpec.sanitize
        #: and .observe).  Consumers (the MPI match loop) flip their
        #: MPI-undefined tie-breaks through ``self.perturb.choose``.
        self.perturb: Optional[Perturb] = (
            Perturb(perturb) if perturb is not None else perturb_from_env()
        )

    def add_watchdog(self, cb: Callable[[SimProcess, Syscall], None]) -> None:
        """Register ``cb(proc, request)`` to run every time a process
        blocks on a Wait/WaitAny.  Watchdogs may raise (e.g. the
        communication sanitizer's wait-for-graph deadlock check turns a
        would-be hang into an immediate diagnostic); the exception
        propagates out of :meth:`run`.
        """
        self._watchdogs.append(cb)

    def _notify_block(self, proc: SimProcess, request: Syscall) -> None:
        for cb in self._watchdogs:
            cb(proc, request)

    # ------------------------------------------------------------------
    # event scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[[], None]) -> Timer:
        """Run ``fn`` at ``now + delay``; returns a cancellable handle."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        t = Timer(fn)
        self._seq = seq = self._seq + 1
        if delay == 0.0:
            t.seq = seq
            self._ready.append(t)
        else:
            t.sim = self
            heapq.heappush(self._heap, (self.now + delay, seq, t))
        return t

    def call_soon(self, fn: Callable[[], None]) -> Timer:
        """O(1) same-instant scheduling: the ready-lane fast path."""
        t = Timer(fn)
        self._seq = seq = self._seq + 1
        t.seq = seq
        self._ready.append(t)
        return t

    # -- internal no-closure posting (the per-event hot path) ----------
    def _post1(self, fn: Callable[[Any], None], a: Any) -> Timer:
        """``call_soon(lambda: fn(a))`` without the closure."""
        t = Timer(fn)
        t.a = a
        self._seq = seq = self._seq + 1
        t.seq = seq
        self._ready.append(t)
        return t

    def _post2(self, fn: Callable[[Any, Any], None], a: Any, b: Any) -> Timer:
        """``call_soon(lambda: fn(a, b))`` without the closure."""
        t = Timer(fn)
        t.a = a
        t.b = b
        self._seq = seq = self._seq + 1
        t.seq = seq
        self._ready.append(t)
        return t

    def _post_at(self, delay: float, fn: Callable[[Any, Any], None],
                 a: Any, b: Any) -> Timer:
        """``schedule(delay, lambda: fn(a, b))`` without the closure."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        t = Timer(fn)
        t.a = a
        t.b = b
        self._seq = seq = self._seq + 1
        if delay == 0.0:
            t.seq = seq
            self._ready.append(t)
        else:
            t.sim = self
            heapq.heappush(self._heap, (self.now + delay, seq, t))
        return t

    def _note_heap_cancel(self) -> None:
        """A timed event was tombstoned; compact the heap in place when
        more than half of it is dead (and it is past the size floor)."""
        self._heap_cancels = c = self._heap_cancels + 1
        heap = self._heap
        if c > _COMPACT_MIN_CANCELLED and 2 * c > len(heap):
            # in-place so a running event loop's local alias stays valid
            heap[:] = [e for e in heap if not e[2].cancelled]
            heapq.heapify(heap)
            self._heap_cancels = 0

    def signal(self, name: str = "") -> Signal:
        return Signal(self, name)

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------
    def spawn(
        self,
        gen: Generator[Syscall, Any, Any],
        *,
        name: str = "proc",
        node=None,
        daemon: bool = False,
    ) -> SimProcess:
        """Register and start a process at the current time."""
        proc = SimProcess(name, gen, daemon=daemon)
        proc.sim = self
        proc.done_signal = self.signal(f"done:{name}")
        if node is not None:
            node.attach(proc)
        self.processes.append(proc)
        proc.state = ProcState.READY
        self._post2(self._resume, proc, None)
        return proc

    def _resume(self, proc: SimProcess, value: Any) -> None:
        """Advance ``proc`` by one syscall."""
        if proc.state in (ProcState.DONE, ProcState.FAILED):
            return
        try:
            request = proc.gen.send(value)
        except StopIteration as stop:
            self._finish(proc, stop.value, None)
            return
        except BaseException as exc:  # propagate app bugs loudly
            self._finish(proc, None, exc)
            raise
        self._dispatch(proc, request)

    def _abandon_cpu_job(self, proc: SimProcess) -> None:
        """Cancel ``proc``'s outstanding compute or poll, if any.

        A process killed (or thrown into) mid-``Compute``/``Poll`` leaves
        a live job on its node's CPU; without cancellation that job completes
        later, clobbers the terminal state back to BLOCKED and resumes a
        closed generator — firing ``done_signal`` a second time.
        """
        job = proc.cpu_job
        if job is not None:
            proc.cpu_job = None
            if not job.cancelled and proc.node is not None:
                proc.node.cpu.cancel(job)

    def _throw(self, proc: SimProcess, exc: BaseException) -> None:
        """Inject an exception into ``proc`` (used for fault injection)."""
        if proc.state in (ProcState.DONE, ProcState.FAILED):
            return
        self._abandon_cpu_job(proc)
        try:
            request = proc.gen.throw(exc)
        except StopIteration as stop:
            self._finish(proc, stop.value, None)
            return
        except BaseException as err:
            self._finish(proc, None, err)
            return
        self._dispatch(proc, request)

    def inject(self, proc: SimProcess, exc: BaseException) -> None:
        """Fault injection: raise ``exc`` inside ``proc`` at the current
        simulated time.  The process may catch it (and keep running) or
        die with it (state FAILED, error recorded) — the simulated
        equivalent of delivering a fatal signal.

        Note: a process whose current syscall is still outstanding (a
        pending compute, a message wait) receives the exception
        immediately; the abandoned syscall's completion is ignored.
        """
        self._post2(self._throw, proc, exc)

    def kill(self, proc: SimProcess) -> None:
        """Terminate ``proc`` immediately (uncatchable)."""
        def do_kill() -> None:
            if proc.state in (ProcState.DONE, ProcState.FAILED):
                return
            proc.gen.close()
            self._finish(proc, None, SimulationError(f"{proc.name} killed"))
        self.call_soon(do_kill)

    def _finish(self, proc: SimProcess, result: Any, error: Optional[BaseException]) -> None:
        self._abandon_cpu_job(proc)
        proc.result = result
        proc.error = error
        proc.state = ProcState.FAILED if error is not None else ProcState.DONE
        if proc.node is not None:
            proc.node.detach(proc)
        proc.done_signal.fire(result)

    # ------------------------------------------------------------------
    # syscall dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, proc: SimProcess, request: Syscall) -> None:
        if isinstance(request, Compute):
            if proc.node is None:
                raise SimulationError(
                    f"process {proc.name} is not attached to a node but asked to compute"
                )
            proc.state = ProcState.READY
            proc.cpu_job = proc.node.cpu.submit(
                proc, request.work, self._resume_done, proc
            )
        elif isinstance(request, Wait):
            proc.state = ProcState.BLOCKED
            request.signal._add_waiter2(self._wake, proc)
            if self._watchdogs:
                self._notify_block(proc, request)
        elif isinstance(request, Sleep):
            proc.state = ProcState.BLOCKED
            self._post_at(request.duration, self._wake, proc, None)
        elif isinstance(request, Poll):
            if proc.node is None:
                raise SimulationError(
                    f"process {proc.name} is not attached to a node but asked to poll"
                )
            cpu = proc.node.cpu
            proc.state = ProcState.READY
            proc.cpu_job = job = cpu.submit(
                proc, request.chunk, self._resume_done, proc, spin=True
            )
            request.signal._add_waiter2(cpu.stop_spin, job)
        elif isinstance(request, WaitAny):
            proc.state = ProcState.BLOCKED
            self._wait_any(proc, list(request.signals))
            if self._watchdogs:
                self._notify_block(proc, request)
        elif isinstance(request, Fork):
            child = request.process
            child.sim = self
            child.done_signal = self.signal(f"done:{child.name}")
            self.processes.append(child)
            child.state = ProcState.READY
            self._post2(self._resume, child, None)
            self._post2(self._resume, proc, child)
        else:
            raise SimulationError(
                f"process {proc.name} yielded a non-syscall: {request!r}"
            )

    def _wait_any(self, proc: SimProcess, signals: list[Signal]) -> None:
        done = {"hit": False}

        def make_cb(idx: int):
            def cb(value: Any) -> None:
                if done["hit"]:
                    return
                done["hit"] = True
                self._wake(proc, (idx, value))
            return cb

        for idx, sig in enumerate(signals):
            sig.add_waiter(make_cb(idx))

    def _wake(self, proc: SimProcess, value: Any) -> None:
        if proc.state in (ProcState.DONE, ProcState.FAILED):
            return
        proc.state = ProcState.READY
        self._resume(proc, value)

    def _resume_done(self, proc: SimProcess) -> None:
        """Compute/Poll-completion callback (pre-bound, no per-submit closure)."""
        proc.cpu_job = None
        self._resume(proc, None)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, until: float = float("inf"), max_events: int = 200_000_000) -> float:
        """Run until the queue drains or ``until`` is reached.

        Returns the final simulated time.  Raises
        :class:`~repro.errors.DeadlockError` if non-daemon processes
        remain blocked when no events are left.

        Note that a cluster with competing (infinite-loop) background
        processes or periodic daemons never drains its queue; use
        :meth:`run_all` or :meth:`stop` to bound such runs.
        """
        self._stopped = False
        ready = self._ready
        heap = self._heap      # mutated only in place (see compaction)
        heappop = heapq.heappop
        no_arg = _NO_ARG
        while not self._stopped:
            # merge the two lanes by exact (time, seq) order: ready
            # events run at self.now, so a heap event goes first only
            # when it lands at this very instant with an earlier seq
            timer = None
            if ready:
                if heap:
                    t, s, ht = heap[0]
                    if t == self.now and s < ready[0].seq:
                        heappop(heap)
                        ht.sim = None
                        if ht.cancelled:
                            self._heap_cancels -= 1
                            continue
                        timer = ht
                if timer is None:
                    if self.now > until:
                        self.now = until
                        return self.now
                    timer = ready.popleft()
                    if timer.cancelled:
                        continue
            elif heap:
                t = heap[0][0]
                if t > until:
                    self.now = until
                    return self.now
                ht = heappop(heap)[2]
                ht.sim = None
                if ht.cancelled:
                    self._heap_cancels -= 1
                    continue
                if t < self.now - 1e-12:
                    raise SimulationError("time went backwards")
                self.now = t
                timer = ht
            else:
                break
            self.n_events += 1
            if self.n_events > max_events:
                raise SimulationError(f"exceeded {max_events} events; runaway simulation?")
            fn = timer.fn
            a = timer.a
            if a is no_arg:
                fn()
            elif timer.b is no_arg:
                fn(a)
            else:
                fn(a, timer.b)
        if not self._stopped:
            self._check_deadlock()
        return self.now

    def stop(self) -> None:
        """Make :meth:`run` return after the current event."""
        self._stopped = True

    def _check_deadlock(self) -> None:
        blocked = [
            p.name
            for p in self.processes
            if not p.daemon and p.state not in (ProcState.DONE, ProcState.FAILED)
        ]
        if blocked:
            raise DeadlockError(blocked)

    def run_all(self, procs: Iterable[SimProcess], until: float = float("inf"),
                tolerate=None) -> None:
        """Run until every process in ``procs`` has finished.

        Stops the event loop as soon as the last target process
        completes, so clusters with competing background processes or
        periodic daemons terminate cleanly.

        ``tolerate``, when given, is a predicate over a failed process:
        returning True accepts the death (an injected fault the caller
        expected) instead of re-raising its error.
        """
        procs = list(procs)
        pending = {id(p) for p in procs if p.state not in (ProcState.DONE, ProcState.FAILED)}

        def make_cb(proc: SimProcess):
            def cb(_value) -> None:
                pending.discard(id(proc))
                if not pending:
                    self.stop()
            return cb

        for p in procs:
            if id(p) in pending:
                p.done_signal.add_waiter(make_cb(p))
        if pending:
            self.run(until=until)
        for p in procs:
            if tolerate is not None and p.state == ProcState.FAILED and tolerate(p):
                continue
            if p.error is not None:
                raise p.error
            if p.state != ProcState.DONE:
                raise SimulationError(f"process {p.name} did not finish (state={p.state})")


def make_simulator(engine: Optional[str] = None, *,
                   perturb: Optional[int] = None) -> Simulator:
    """Build a simulator with the requested engine.

    ``engine`` may be ``"calendar"`` (the two-lane scheduler above),
    ``"reference"`` (the original single-heap loop, kept verbatim as
    the equivalence oracle) or None, which defers to the
    ``DYNMPI_KERNEL`` environment variable and defaults to calendar —
    the same explicit-beats-environment convention as the sanitizer
    and observability switches.
    """
    if engine is None:
        engine = os.environ.get("DYNMPI_KERNEL", "").strip() or "calendar"
    if engine == "calendar":
        return Simulator(perturb=perturb)
    if engine == "reference":
        from .kernel_reference import ReferenceSimulator
        return ReferenceSimulator(perturb=perturb)
    raise SimulationError(
        f"unknown kernel engine {engine!r} (expected 'calendar' or 'reference')"
    )
