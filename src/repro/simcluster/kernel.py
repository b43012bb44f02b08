"""Discrete-event simulation kernel.

The kernel owns virtual time and the event queue.  Simulated processes
are Python generators that yield :mod:`~repro.simcluster.syscalls`
request objects; the kernel services each request and resumes the
generator with the result.  CPU scheduling itself lives in
:mod:`~repro.simcluster.cpu` — the kernel only knows how to park a
process and wake it later.

Design notes
------------
* Time is ``int`` nanoseconds (``now``, every heap key, all CPU and NIC
  state), ``gethrtime``'s resolution, so instants add and compare
  exactly.  Seconds, work over speed and bytes over bandwidth enter
  through :func:`to_ns` (rounded once, half to even); reports leave
  through :func:`to_s` as float seconds.
* Events are ``(time, seq)``-ordered callbacks; ``seq`` is a global
  monotone counter so simultaneous events run in schedule order and the
  simulation is fully deterministic.
* One structure: a single ``heapq`` of ``(time, seq, Timer)`` triples.
  ``call_soon(fn, *args)`` is a push at ``self.now``, so zero-delay
  resumes — deferred completions, signal wakeups, spawn kicks — take
  the same path as timed events.  Scheduling follows the asyncio
  calling convention (``schedule(delay, fn, *args)``,
  ``call_soon(fn, *args)``, ``Signal.add_waiter(cb, *args)``): the
  arguments ride on the :class:`Timer`, so no hot path allocates a
  closure per event.
* Cancellation is done with tombstones (:class:`Timer` handles), the
  standard heapq idiom, so cancelling is O(1).  The simulator counts
  tombstones still sitting in the heap and **compacts** — filters and
  re-heapifies in place — when more than half the heap is cancelled
  (and it is past a small size floor), so heartbeat-style
  schedule/cancel churn cannot grow the heap without bound.
* One wakeup per process: ``SimProcess.wakeup`` is bumped for every
  syscall ``_dispatch`` starts and by ``_throw``/``_finish``, which
  abandon the one in flight.  Each resumption the kernel arms (spawn
  kick, ``Sleep`` timer, ``Wait`` waiter, CPU completion) carries the
  value it was armed with; :meth:`Simulator._resume`, the one place
  that resumes a generator after a wakeup, ignores any other.
* Deadlock detection: if the queue drains while registered processes
  are still blocked, :class:`~repro.errors.DeadlockError` is raised
  listing them — the simulated analogue of a hung MPI job.
  ``Simulator.on_block`` (None when off) runs at every ``Wait``; the
  cluster sets it to the sanitizer's wait-for-graph check.
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
import math
import os
from typing import Any, Callable, Generator, Iterable, Optional

from ..errors import DeadlockError, SimulationError
from .syscalls import Compute, ComputeRows, Poll, Sleep, Syscall, Wait

__all__ = [
    "Perturb", "ProcState", "Signal", "SimProcess", "Simulator", "Timer",
    "perturb_from_env", "to_ns", "to_s",
]

NS = 1_000_000_000  # clock ticks per second


def to_ns(seconds: float) -> int:
    """Seconds as clock ns, half to even (as ``np.rint(a * NS)``)."""
    return round(seconds * NS)


def to_s(ns: int) -> float:
    """Clock ns as float seconds (what every report holds)."""
    return ns / NS


def _horizon(until: Any) -> int | float:
    """``Simulator.run``'s ``until`` as whole ns (an int), or math.inf."""
    if isinstance(until, float) and until.is_integer():
        return int(until)
    if isinstance(until, int) or until == math.inf:
        return until
    raise SimulationError(f"run(until=...) takes whole ns or math.inf, got {until!r}")


#: tombstone compaction floor: no compaction below this many cancelled
#: heap entries, so tiny simulations never pay a heapify
_COMPACT_MIN_CANCELLED = 64


class Perturb:
    """Deterministic schedule-perturbation state (the ``perturb``
    harness, :mod:`repro.analysis.perturb`; ``docs/ANALYSIS.md`` §5).

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

    ``args`` are the call arguments bound at scheduling time; a non-None
    ``sim`` marks a timer still sitting in that simulator's heap, so a
    cancel feeds its tombstone accounting.
    """

    __slots__ = ("fn", "args", "cancelled", "sim")

    def __init__(self, fn: Callable[..., None], args: tuple,
                 sim: Optional["Simulator"]):
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.sim = sim

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        if self.sim is not None:
            self.sim._note_heap_cancel()


class Signal:
    """A one-shot waitable condition carrying a value.

    Processes block on a signal with the :class:`~.syscalls.Wait`
    syscall; :meth:`fire` wakes all waiters at the current time.
    """

    __slots__ = ("sim", "fired", "value", "_waiters", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self.fired = False
        self.value: Any = None
        self._waiters: list[tuple[Callable[..., None], tuple]] = []

    def fire(self, value: Any = None) -> None:
        if self.fired:
            raise SimulationError(f"signal {self.name!r} fired twice")
        self.fired = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        call_soon = self.sim.call_soon
        for cb, args in waiters:
            call_soon(cb, *args, value)

    def add_waiter(self, cb: Callable[..., None], *args: Any) -> None:
        """Call ``cb(*args, value)`` once the signal fires (at once, as
        a zero-delay event, if it already has)."""
        if self.fired:
            self.sim.call_soon(cb, *args, self.value)
        else:
            self._waiters.append((cb, args))


class SimProcess:
    """A simulated process: a generator plus scheduling bookkeeping.

    ``node`` is the :class:`~repro.simcluster.node.Node` it was spawned
    on, whose process table keeps it for good, finished or not;
    processes that never compute (pure bookkeeping daemons) run with
    ``node=None`` and must not yield :class:`Compute`.
    """

    __slots__ = (
        "name", "gen", "node", "state", "cpu_time", "fair_share", "result", "error",
        "done_signal", "daemon", "cpu_job", "wakeup",
    )

    def __init__(self, name: str, gen: Generator[Syscall, Any, Any], *, daemon: bool = False):
        self.name = name
        self.gen = gen
        self.node = None  # set by Node.attach at spawn
        self.state = ProcState.NEW
        self.cpu_time = 0  # CPU ns consumed (the /PROC counter)
        self.fair_share = None  # the scheduler's EMA record of that use
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.done_signal: Optional[Signal] = None
        self.daemon = daemon
        self.cpu_job = None  # in-flight CPU Job while a Compute/Poll is outstanding
        #: the one wakeup that may resume the process (module docstring)
        self.wakeup = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimProcess {self.name} {self.state}>"


class Simulator:
    """The event loop (one ``(time, seq)`` heap; see module docstring).

    Typical use::

        sim = Simulator()
        sim.spawn(my_process_generator(), name="p0")
        sim.run()
    """

    def __init__(self, *, perturb: Optional[int] = None) -> None:
        self.now = 0  # ns
        #: pending events: (time, seq, Timer) triples, heap-ordered
        self._heap: list[tuple[int, int, Timer]] = []
        #: cancelled entries still sitting in ``_heap`` (tombstones);
        #: drives compaction
        self._heap_cancels = 0
        self._seq = 0
        self.processes: list[SimProcess] = []
        self.n_events = 0
        self._stopped = False
        #: called at every ``Wait`` (None when off); what it raises
        #: propagates out of :meth:`run` (the sanitizer's deadlock check)
        self.on_block: Optional[Callable[[], None]] = None
        #: schedule-perturbation state, or None when off.  An explicit
        #: seed wins; ``None`` defers to ``DYNMPI_PERTURB`` (the same
        #: explicit-beats-environment convention as ClusterSpec.sanitize
        #: and .observe).  Consumers (the MPI match loop) flip their
        #: MPI-undefined tie-breaks through ``self.perturb.choose``.
        self.perturb: Optional[Perturb] = (
            Perturb(perturb) if perturb is not None else perturb_from_env()
        )

    # ------------------------------------------------------------------
    # event scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, fn: Callable[..., None], *args: Any) -> Timer:
        """Run ``fn(*args)`` at ``now + delay`` (ns); returns a cancellable handle."""
        if not delay >= 0:  # also rejects NaN, which ``delay < 0`` lets through
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        t = Timer(fn, args, self)
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (self.now + delay, seq, t))
        return t

    def call_soon(self, fn: Callable[..., None], *args: Any) -> Timer:
        """Run ``fn(*args)`` at the current instant, after every event
        already scheduled for it."""
        t = Timer(fn, args, self)
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (self.now, seq, t))
        return t

    def _note_heap_cancel(self) -> None:
        """A pending event was tombstoned; compact the heap in place when
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
        proc.done_signal = self.signal(f"done:{name}")
        if node is not None:
            node.attach(proc)
        self.processes.append(proc)
        proc.state = ProcState.READY
        self.call_soon(self._resume, proc, proc.wakeup, None)
        return proc

    def _resume(self, proc: SimProcess, wakeup: int, value: Any) -> None:
        """Advance ``proc`` by one syscall, unless ``wakeup`` is not the
        process's current one (its syscall was abandoned, or it ended)."""
        if wakeup != proc.wakeup:
            return
        proc.cpu_job = None
        try:
            request = proc.gen.send(value)
        except StopIteration as stop:
            self._finish(proc, stop.value, None)
            return
        except BaseException as exc:  # propagate app bugs loudly
            self._finish(proc, None, exc)
            raise
        self._dispatch(proc, request)

    def _abandon(self, proc: SimProcess) -> None:
        """Abandon ``proc``'s syscall in flight: no wakeup armed for it
        resumes the process, and its CPU job, if any, is cancelled (it
        must stop using the CPU, not only not resume the process)."""
        proc.wakeup += 1
        job = proc.cpu_job
        if job is not None:
            proc.cpu_job = None
            if not job.cancelled and proc.node is not None:
                proc.node.cpu.cancel(job)

    def _throw(self, proc: SimProcess, exc: BaseException) -> None:
        """Inject an exception into ``proc`` (used for fault injection)."""
        if proc.state in (ProcState.DONE, ProcState.FAILED):
            return
        self._abandon(proc)
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
        pending compute, a sleep, a message wait) receives the exception
        immediately; the abandoned syscall's completion is ignored,
        whatever the syscall, so a process that catches the fault is
        resumed only by the syscall it makes next.
        """
        self.call_soon(self._throw, proc, exc)

    def kill(self, proc: SimProcess) -> None:
        """Terminate ``proc`` immediately (uncatchable)."""
        self.call_soon(self._kill, proc)

    def _kill(self, proc: SimProcess) -> None:
        if proc.state in (ProcState.DONE, ProcState.FAILED):
            return
        proc.gen.close()
        self._finish(proc, None, SimulationError(f"{proc.name} killed"))

    def _finish(self, proc: SimProcess, result: Any, error: Optional[BaseException]) -> None:
        self._abandon(proc)
        proc.result = result
        proc.error = error
        proc.state = ProcState.FAILED if error is not None else ProcState.DONE
        proc.done_signal.fire(result)

    # ------------------------------------------------------------------
    # syscall dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, proc: SimProcess, request: Syscall) -> None:
        proc.wakeup = wakeup = proc.wakeup + 1
        if isinstance(request, (Compute, ComputeRows, Poll)):
            if proc.node is None:
                raise SimulationError(f"process {proc.name} is not attached to a node "
                                      f"but asked to {type(request).__name__}")
            cpu = proc.node.cpu
            if isinstance(request, Compute):
                proc.cpu_job = cpu.submit(proc, request.work, self._resume, proc, wakeup, None)
            elif isinstance(request, ComputeRows):
                proc.cpu_job = cpu.submit_rows(proc, request.works, self._resume_rows, proc, wakeup)
            else:
                proc.cpu_job = job = cpu.submit(proc, request.chunk, self._resume,
                                                proc, wakeup, None, spin=True)
                request.signal.add_waiter(cpu.stop_spin, job)
        elif isinstance(request, Wait):
            proc.state = ProcState.BLOCKED
            request.signal.add_waiter(self._resume, proc, wakeup)
            if self.on_block is not None:
                self.on_block()
        elif isinstance(request, Sleep):
            proc.state = ProcState.BLOCKED
            self.schedule(to_ns(request.duration), self._resume, proc, wakeup, None)
        else:
            raise SimulationError(f"process {proc.name} yielded a non-syscall: {request!r}")

    def _resume_rows(self, proc: SimProcess, wakeup: int, rows) -> None:
        """ComputeRows-completion callback: resume with the row
        boundaries, the last one read now, as a process reading its
        clocks after its last row would read it."""
        rows.stamps[-1] = self.now
        rows.clocks[-1] = proc.cpu_time
        self._resume(proc, wakeup, (rows.stamps, rows.clocks))

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, until: int | float = math.inf,
            max_events: int = 200_000_000) -> int:
        """Run until the queue drains or ``until`` (ns) is reached.

        Returns the final simulated time (ns).  ``until`` is whole ns
        (an int, or a float holding one) or the unbounded default, so
        the clock stays an int; anything else raises SimulationError.
        Raises :class:`~repro.errors.DeadlockError` if non-daemon
        processes remain blocked when no events are left.

        Note that a cluster with competing (infinite-loop) background
        processes or periodic daemons never drains its queue; use
        :meth:`run_all` or :meth:`stop` to bound such runs.
        """
        horizon = _horizon(until)
        self._stopped = False
        heap = self._heap      # mutated only in place (see compaction)
        heappop = heapq.heappop
        while heap and not self._stopped:
            t, _, timer = heap[0]
            if timer.cancelled:
                # a tombstone is discarded before the ``until`` test, so
                # a queue of nothing but tombstones past ``until`` ends
                # the run like an empty one whether or not compaction
                # has already dropped them
                heappop(heap)
                timer.sim = None
                self._heap_cancels -= 1
                continue
            if t > horizon:
                self.now = horizon
                return horizon
            heappop(heap)
            timer.sim = None
            self.now = t
            self.n_events += 1
            if self.n_events > max_events:
                raise SimulationError(f"exceeded {max_events} events; runaway simulation?")
            timer.fn(*timer.args)
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

    def run_all(self, procs: Iterable[SimProcess], until: int | float = math.inf,
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

        def on_done(proc: SimProcess, _value) -> None:
            pending.discard(id(proc))
            if not pending:
                self.stop()

        for p in procs:
            if id(p) in pending:
                p.done_signal.add_waiter(on_done, p)
        if pending:
            self.run(until=until)
        for p in procs:
            if tolerate is not None and p.state == ProcState.FAILED and tolerate(p):
                continue
            if p.error is not None:
                raise p.error
            if p.state != ProcState.DONE:
                raise SimulationError(f"process {p.name} did not finish (state={p.state})")
