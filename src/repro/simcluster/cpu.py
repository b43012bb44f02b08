"""The CPU scheduler of a simulated node.

:class:`RoundRobinCPU` is quantized time slicing (quantum = 10 ms by
default).  This is the faithful model: it produces the wallclock-timer
artifacts the paper's Section 4.2 is about (an iteration shorter than
a quantum either completes unpreempted, giving its true time, or
spans a context switch and absorbs a competing process's slice).

It supports *background jobs* — the competing processes of a non
dedicated cluster — which are CPU-bound forever until removed.

Fast path: when the queue holds a single job, the slice runs
to the job's completion in one event; the arrival of another job
preempts the long slice and falls back to quantized slicing.  This
keeps dedicated-node simulations cheap without changing semantics.

Spin jobs: a busy-polling receive (the :class:`~.syscalls.Poll`
syscall) is *one* job that burns CPU in fixed steps until
``stop_spin`` is called, then finishes the step it is in.  It is
scheduled exactly like the chain of one-step compute requests it
stands for — alone on the CPU it needs no timer at all, contended it
takes turns of one quantum — and its accounting (CPU time, fair-share
EMA, quantum credit) is the closed form of that chain's, so a wait
costs O(1) events however long it lasts.

Row chains: the grace period's per-row timing (the
:class:`~.syscalls.ComputeRows` syscall) is *one* job that runs a
sequence of rows back to back and records the wallclock and the
process's CPU time at every row boundary.  Contended, each row boundary
does inline what a row's completion and its successor's submit would
do through two deferred events (same continuation credit, same jitter
draws, one event per row at most).  Alone on the CPU, the rest of the
chain is one untimed slice ending at the last row's end — the row ends
are the per-row fast path's sums — and whatever ends
the slice early (a newcomer, a cancel) first credits every boundary
already crossed, one by one, exactly as the rows' own slice ends would
have (unlike a spin job's fair-share EMA, a closed form not
bit-identical to its chain's, which need not be).

All time state — ``remaining``, the quantum and its credit, CPU and
busy time, row stamps, spin steps — is ``int`` nanoseconds of the
simulator clock, so every comparison here is exact: a request's work
becomes time once, at submit (:func:`~.kernel.to_ns` of work over
speed).
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from ..errors import SimulationError
from .kernel import NS, ProcState, Simulator, Timer, to_ns

__all__ = ["Job", "RowChain", "BackgroundJob", "RoundRobinCPU"]


class BackgroundJob:
    """A competing process: CPU-bound, never finishes until removed.

    It is not a :class:`SimProcess` — it has no program — but it
    occupies the run queue and therefore shows up in the node's process
    table (and in ``dmpi_ps`` samples).
    """

    __slots__ = ("name", "state", "cpu_time", "fair_share", "node")

    def __init__(self, name: str):
        self.name = name
        self.state = ProcState.READY
        self.cpu_time = 0
        self.fair_share = None  # see RoundRobinCPU._ema_share
        self.node = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<BackgroundJob {self.name} {self.state}>"


class Job:
    """One outstanding compute request on a CPU; ``remaining`` is the
    CPU time (ns) it still needs.

    ``allowed`` is the quantum budget left for a *continuation* job — a
    request submitted by the process that was running at this very
    instant with quantum to spare.  ``turn_used`` is the quantum
    consumed so far in the job's current turn: it starts at what that
    unexpired slice had already used and is zeroed whenever the job is
    requeued (which breaks the continuation chain).

    A *spin job* has ``step`` set (CPU ns per poll step) and
    infinite ``remaining`` until ``stop_spin`` cuts it down to the rest
    of its current step; ``phase`` is the CPU time it had consumed
    inside that step when it last left the CPU, at ``left``.

    A *row chain* has ``rows`` set; ``remaining`` is then what is left
    of its current row.
    """

    __slots__ = ("proc", "remaining", "callback", "cb_args", "cancelled",
                 "allowed", "turn_used", "boost_time", "step", "phase", "left",
                 "rows", "done_timer")

    def __init__(self, proc, remaining: float,
                 callback: Optional[Callable[..., None]], cb_args: tuple = ()):
        self.proc = proc
        self.remaining = remaining  # int, or inf for a spin/background job
        self.callback = callback
        self.cb_args = cb_args
        self.cancelled = False
        self.allowed: Optional[int] = None
        self.turn_used = 0
        self.boost_time: Optional[int] = None  # instant this job was boosted
        self.step: Optional[int] = None
        self.phase = 0
        self.left: Optional[int] = None
        self.rows: Optional[RowChain] = None
        self.done_timer = None  # the deferred completion callback, once due


class RowChain:
    """The rows of a :class:`~.syscalls.ComputeRows` job and what has
    been measured of them: ``durs[k]`` is row ``k``'s CPU time (ns);
    ``stamps[k]`` / ``clocks[k]`` are the time and the process's
    ``cpu_time`` at the start of row ``k`` (at ``k = len(durs)``, the
    end of the last row), filled in as the rows are crossed.  While the
    chain runs an untimed slice, ``ends[j]`` is when row ``row + j``
    ends in it."""

    __slots__ = ("durs", "row", "stamps", "clocks", "ends")

    def __init__(self, durs: np.ndarray, now: int, cpu_time: int):
        self.durs = durs
        self.row = 0
        self.stamps = np.empty(len(durs) + 1, dtype=np.int64)
        self.clocks = np.empty(len(durs) + 1, dtype=np.int64)
        self.stamps[0], self.clocks[0] = now, cpu_time
        self.ends: Optional[np.ndarray] = None


class RoundRobinCPU:
    """Quantized round-robin scheduling (see module docstring).

    Quantum continuation: when a job completes mid-quantum and its
    process immediately (at the same simulated instant) submits another
    compute request — the common pattern of an application timing
    individual iterations — the new request continues in the unexpired
    quantum at the head of the queue instead of going to the tail.
    Without this, a loaded node would charge every sub-quantum
    iteration a full competing time slice, which no real OS does, and
    the paper's min-over-cycles filter (Figure 7) could never recover
    true iteration times.
    """

    def __init__(self, sim: Simulator, speed: float, quantum: float = 0.010,
                 rng=None, *, node_id: int = 0, obs=None):
        if speed <= 0:
            raise SimulationError("CPU speed must be positive")
        if quantum <= 0:
            raise SimulationError("quantum must be positive")
        self.sim = sim
        self.speed = speed
        self.quantum = to_ns(quantum)
        self.busy_time = 0  # total CPU ns delivered to any job
        self._bg_jobs: dict[BackgroundJob, Job] = {}
        self._queue: list[Job] = []
        self._current: Optional[Job] = None
        self._slice_timer: Optional[Timer] = None
        self._slice_start = 0
        self._slice_long = False  # True when running the single-job fast path
        # (proc, time, quantum_used) of the most recent mid-quantum completion
        self._cont: Optional[tuple] = None
        # (proc, time) of the most recent completion of any kind: a
        # process resubmitting at that instant is CPU-bound, not waking
        self._last_done: Optional[tuple] = None
        self._rng = rng
        self.n_context_switches = 0
        self.n_wake_boosts = 0
        #: the cluster's dynscope recorder (None = off): every accounted
        #: slice is appended to its ``slices`` as ``node_id``'s
        self.node_id = node_id
        self.obs = obs

    # -- background (competing) processes --------------------------------
    def add_background(self, bg: BackgroundJob) -> None:
        if bg in self._bg_jobs:
            raise SimulationError(f"background job {bg.name} already running")
        self._bg_jobs[bg] = self._enqueue(Job(bg, math.inf, None))

    def remove_background(self, bg: BackgroundJob) -> None:
        job = self._bg_jobs.pop(bg, None)
        if job is None:
            raise SimulationError(f"background job {bg.name} is not running")
        self.cancel(job)
        bg.state = ProcState.DONE

    @property
    def n_background(self) -> int:
        return len(self._bg_jobs)

    # -- public -----------------------------------------------------------
    def submit(self, proc, work: float, callback, *cb_args,
               spin: bool = False) -> Job:
        """Queue ``work`` units for ``proc``; with ``spin`` the job
        repeats steps of ``work`` until :meth:`stop_spin`."""
        job = Job(proc, to_ns(work / self.speed), callback, cb_args)
        if spin:
            job.step, job.remaining = job.remaining, math.inf
        return self._enqueue(job)

    def submit_rows(self, proc, works, callback, *cb_args) -> Job:
        """Queue the rows ``works`` (work units each) for ``proc`` as one
        chain job; on completion ``callback(*cb_args, chain)`` gets its
        :class:`RowChain`, whose ``stamps`` / ``clocks`` hold every row
        boundary but the last, which the callback reads itself."""
        # each row's time rounds as its own submit would round it
        durs = np.rint(np.asarray(works, dtype=float) / self.speed * NS).astype(np.int64)
        rows = RowChain(durs, self.sim.now, proc.cpu_time)
        job = Job(proc, int(durs[0]), callback, (*cb_args, rows))
        job.rows = rows
        return self._enqueue(job)

    def _enqueue(self, job: Job) -> Job:
        """Queue a new request (see the class docstring for where)."""
        proc = job.proc
        proc.state = ProcState.READY
        cont = self._cont
        now = self.sim.now
        if (
            cont is not None
            and cont[0] is proc
            and cont[1] == now
            and cont[2] < self.quantum
        ):
            # continuation within the unexpired quantum: head of queue
            job.allowed = self.quantum - cont[2]
            job.turn_used = cont[2]
            self._queue.insert(0, job)
            self._cont = None  # consumed
            if self._current is None:
                self._start_next()
            elif self._slice_long:
                self._preempt_current()
            return job
        # NOTE: an unmatched continuation record is left in place — a
        # same-instant submit by another process (a peer woken by the same
        # event) must not destroy the running process's quantum credit;
        # the timestamp check invalidates it as soon as time advances.

        # wakeup boost: a process that was blocked (I/O, message wait)
        # and becomes runnable preempts CPU-bound work — the standard
        # interactivity boost of classic UNIX schedulers — but only
        # while its recent CPU share is below its fair share.  Without
        # the boost, every tiny post-receive CPU burst on a loaded node
        # would wait k full competing quanta (no real OS does that);
        # without the fair-share governor, a compute-heavy app would
        # dodge competing processes entirely (no real OS does that
        # either — a process that keeps consuming CPU loses priority).
        was_blocked = not (
            self._last_done is not None
            and self._last_done[0] is proc
            and self._last_done[1] == now
        )
        if was_blocked and not isinstance(proc, BackgroundJob):
            if not self._below_fair_share(proc):
                # above fair share: the wakeup still preempts (so
                # message handling is prompt) but only for a short
                # interactive slice — long computation cannot use the
                # boost to dodge competing processes.  The slice is
                # jittered so its expiry never pins the same
                # application iteration cycle after cycle (which would
                # defeat the grace period's min-filter).
                slice_budget = self.quantum * self._INTERACTIVE_FRAC
                if self._rng is not None:
                    slice_budget *= 0.5 + float(self._rng.random())
                job.allowed = round(slice_budget)
                job.turn_used = self.quantum - job.allowed
            self.n_wake_boosts += 1
            job.boost_time = now
            # FIFO among jobs boosted at this same instant: processes
            # woken together run in wakeup order, so a peer woken as a
            # row chain starts waits for its first row, not its last
            idx = 0
            while (idx < len(self._queue)
                   and self._queue[idx].boost_time == now):
                idx += 1
            cur = self._current
            if cur is not None and cur.boost_time == now:
                self._queue.insert(idx, job)  # queue behind the peer boost
            elif cur is not None:
                self._queue.insert(idx, job)
                if idx == 0:
                    self._preempt_current(insert_pos=1)
            else:
                self._queue.insert(idx, job)
                self._start_next()
            return job

        self._queue.append(job)
        if self._current is None:
            self._start_next()
        elif self._slice_long:
            # A long (unbounded) slice is in flight; preempt it so the
            # newcomer gets quantized service.
            self._preempt_current()
        return job

    def cancel(self, job: Job) -> None:
        job.cancelled = True
        if job.done_timer is not None:
            # abandoned at its completion instant: the process must not
            # be resumed by it as well
            job.done_timer.cancel()
        if job is self._current:
            self._account_current()
            self._current = None
            if self._slice_timer is not None:
                self._slice_timer.cancel()
                self._slice_timer = None
            self._start_next()
        else:
            try:
                self._queue.remove(job)
            except ValueError:
                pass  # already finished

    def stop_spin(self, job: Job, _value=None) -> None:
        """End a spin job at the end of the poll step it is in (a
        signal waiter: ``_value`` is the fired value, unused)."""
        if job.cancelled or job.remaining != math.inf:
            return  # killed mid-poll, or stopped already
        if job is not self._current:
            # queued: it runs the rest of its step when next dispatched
            job.remaining = self._spin_rest(job, 0)
            return
        # the slice is not split here — ``remaining`` counts from its
        # start — so its accounting stays one closed form
        elapsed = self.sim.now - self._slice_start
        rest = self._spin_rest(job, elapsed)
        job.remaining = elapsed + rest
        # re-arm the slice: to the end of the step, or to the end of
        # the turn if that comes first
        if self._slice_timer is not None:
            self._slice_timer.cancel()
        if not self._slice_long:
            rest = min(max(0, job.allowed - elapsed), rest)
        self._slice_timer = self.sim.schedule(rest, self._on_slice_end)

    def runnable_jobs(self) -> list[Job]:
        jobs = list(self._queue)
        if self._current is not None:
            jobs.append(self._current)
        return jobs

    def runnable_count(self) -> int:
        return len(self.runnable_jobs())

    # -- internals ----------------------------------------------------------
    def _start_next(self) -> None:
        if not self._queue:
            self._current = None
            return
        job = self._queue.pop(0)
        self._current = job
        self._slice_start = self.sim.now
        job.proc.state = ProcState.RUNNING
        spinning = job.step is not None and job.remaining == math.inf
        if not self._queue and (spinning or math.isfinite(job.remaining)):
            # fast path: run to completion unless preempted
            self._slice_long = True
            if spinning:
                # nothing to time: a newcomer preempts the slice and
                # stop_spin arms the timer for the last step
                return
            duration = job.remaining if job.rows is None else self._plan_rows(job)
        else:
            self._slice_long = False
            budget = self.quantum if job.allowed is None else job.allowed
            jitter = 1.0
            if self._rng is not None and job.allowed is None:
                # real schedulers do not slice with zero variance; the
                # jitter decorrelates quantum boundaries from iteration
                # boundaries so the grace period's min-filter sees an
                # occasionally-unpreempted run of every iteration
                jitter += 0.1 * (float(self._rng.random()) - 0.5)
            if spinning:
                # a turn of one-step requests chains through the
                # quantum continuation and so lasts the exact quantum:
                # the jitter only ever stretched a budget its first
                # step never reached (the draw keeps the stream aligned)
                job.allowed = duration = budget
            else:
                duration = min(round(budget * jitter), job.remaining)
        self._slice_timer = self.sim.schedule(duration, self._on_slice_end)

    # EMA window for the fair-share governor (ns); several quanta
    # long, so sustained compute loses its boost within a few tens of
    # milliseconds — roughly the reaction time of a UNIX TS scheduler's
    # priority decay
    _EMA_TAU = 40_000_000
    # hysteresis: full-quantum boost only while share < fair * this
    _BOOST_HEADROOM = 0.9
    # fraction of a quantum granted to an above-fair-share wakeup
    _INTERACTIVE_FRAC = 0.1

    def _ema_share(self, proc) -> float:
        """Recent CPU share of ``proc`` (0..1).  The EMA of its CPU
        usage lives on the process itself, as ``proc.fair_share =
        [t_last, score]`` (None until it first runs); the share over
        the recent window is ``score / _EMA_TAU``."""
        rec = proc.fair_share
        if rec is None:
            return 0.0
        dt = self.sim.now - rec[0]
        if dt > 0:
            rec[1] *= math.exp(-dt / self._EMA_TAU)
            rec[0] = self.sim.now
        return rec[1] / self._EMA_TAU

    def _ema_add(self, proc, elapsed: float) -> None:
        rec = proc.fair_share
        if rec is None:
            rec = proc.fair_share = [self.sim.now, 0.0]
        dt = self.sim.now - rec[0]
        if dt > 0:
            rec[1] *= math.exp(-dt / self._EMA_TAU)
        rec[0] = self.sim.now
        rec[1] += elapsed

    def _below_fair_share(self, proc) -> bool:
        runnable = len(self._queue) + (1 if self._current is not None else 0) + 1
        fair = 1.0 / runnable
        return self._ema_share(proc) < fair * self._BOOST_HEADROOM

    def _account_current(self) -> None:
        """Credit the elapsed part of the in-flight slice to its job."""
        job = self._current
        if job is None:
            return
        now = self.sim.now
        if job.rows is not None and job.rows.ends is not None:
            self._cross_rows(job, now)
        elapsed = now - self._slice_start
        if elapsed > 0:
            job.remaining -= elapsed
            job.proc.cpu_time += elapsed
            self.busy_time += elapsed
            if job.step is None:
                self._ema_add(job.proc, elapsed)
                job.turn_used += elapsed
            else:
                self._account_spin(job, elapsed)
            if job.allowed is not None:
                job.allowed = max(0, job.allowed - elapsed)
            if self.obs is not None:
                self.obs.slices.append(
                    (self.node_id, job.proc.name, self._slice_start, now))
        self._slice_start = now

    def _plan_rows(self, job: Job) -> int:
        """Lay out a chain's untimed slice from now: its rows' ends as
        the per-row fast path would reach them, each the previous end
        plus the row's time.  A chain boosted at this very instant runs
        only its current row untimed: a peer boosted at the same instant
        queues behind it *without* preempting, and the next row's own
        dispatch would then find the queue busy.  Returns the slice's
        length."""
        rows = job.rows
        now = self.sim.now
        rest = rows.durs[rows.row + 1:] if job.boost_time != now else rows.durs[:0]
        rows.ends = now + np.cumsum(np.concatenate(([job.remaining], rest)))
        return int(rows.ends[-1]) - now

    def _cross_rows(self, job: Job, now: int) -> None:
        """End a chain's untimed slice at ``now``: credit every row
        boundary it crossed before its last, in order, as that row's own
        slice end and its successor's submit would have — for each, the
        credit of :meth:`_account_current` then :meth:`_next_row`.  CPU
        time, busy time, stamps and slices are array sums; the
        fair-share EMA (:meth:`_ema_add` at each boundary's time,
        ``math.exp``) and the quantum credit are a loop over locals —
        all an idle node's grace period costs per row.  The rest of the
        slice is the caller's plain credit."""
        rows = job.rows
        ends, rows.ends = rows.ends, None
        crossed = min(int(np.searchsorted(ends, now, side="right")), len(ends) - 1)
        if not crossed:
            return
        proc = job.proc
        start = self._slice_start
        times = ends[:crossed]
        elapsed = np.diff(times, prepend=start)
        first = rows.row + 1
        rows.stamps[first:first + crossed] = times
        rows.clocks[first:first + crossed] = proc.cpu_time + np.cumsum(elapsed)
        times, elapsed = times.tolist(), elapsed.tolist()
        if self.obs is not None:
            self.obs.slices.extend((self.node_id, proc.name, t - e, t)
                                   for t, e in zip(times, elapsed) if e > 0)
        proc.cpu_time += times[-1] - start
        self.busy_time += times[-1] - start
        quantum, tau = self.quantum, self._EMA_TAU
        used, allowed = job.turn_used, job.allowed
        rec = proc.fair_share
        for t, e in zip(times, elapsed):
            if e > 0:
                if rec is None:
                    rec = proc.fair_share = [t, 0.0]
                dt = t - rec[0]
                if dt > 0:
                    rec[1] *= math.exp(-dt / tau)
                rec[0] = t
                rec[1] += e
                used += e
            if used < quantum:
                allowed = quantum - used
            else:
                allowed, used = None, 0
        rows.row += crossed
        job.remaining = int(rows.durs[rows.row])
        job.turn_used, job.allowed, job.boost_time = used, allowed, None
        self._slice_start = times[-1]
        self._last_done, self._cont = (proc, self._slice_start), None

    def _next_row(self, job: Job, now: int) -> bool:
        """Move a chain past the row boundary at ``now``: the state the
        row's completion leaves (the process done at ``now``, its
        continuation credit consumed at once) and the state its
        successor's submit gives the job.  True when the successor
        continues in the unexpired quantum (head of the queue), False
        when it starts a fresh one (tail)."""
        rows = job.rows
        proc = job.proc
        self._last_done = (proc, now)
        self._cont = None
        rows.row += 1
        rows.stamps[rows.row] = now
        rows.clocks[rows.row] = proc.cpu_time
        job.remaining = int(rows.durs[rows.row])
        job.boost_time = None
        if job.turn_used < self.quantum:
            job.allowed = self.quantum - job.turn_used
            return True
        job.allowed = None
        job.turn_used = 0
        return False

    def _requeue_row(self, job: Job) -> bool:
        """A chain's row is done now: queue the chain for its next row
        where that row's own submit would have queued it; False (and
        nothing queued) when it was the last row."""
        rows = job.rows
        if rows.row + 1 == len(rows.durs):
            return False
        job.proc.state = ProcState.READY
        if self._next_row(job, self.sim.now):
            self._queue.insert(0, job)
        else:
            self._queue.append(job)
        return True

    def _spin_rest(self, job: Job, elapsed: int) -> int:
        """CPU ns from now to the step end a spin job stopped now
        notices at, having run ``elapsed`` CPU ns past ``job.phase``
        (0 while queued).  Tie rule: a step end reached at this very
        instant counts (the poll that ends now sees the message),
        whether the job is still running or left the CPU on it; one
        reached earlier does not — that poll already ran, so a whole
        step follows."""
        tail = (job.phase + elapsed) % job.step
        if not tail and (elapsed or job.left == self.sim.now):
            return 0
        return job.step - tail

    def _account_spin(self, job: Job, elapsed: int) -> None:
        """Credit ``elapsed`` ns of a spin job as the chain of
        one-step requests would have: one EMA add per step end (the
        closed-form sum of their decayed contributions) and, on an
        untimed slice, the quantum credit restarting at every step end
        that found the quantum used up."""
        step = job.step
        head = step - job.phase  # what this slice ran of its first step
        n, tail = divmod(job.phase + elapsed, step)
        job.phase, job.left = tail, self.sim.now
        if n == 0:
            self._ema_add(job.proc, elapsed)
            job.turn_used += elapsed
            return
        # step ends lie tail, tail + step, ... before now
        tau = self._EMA_TAU
        credit = head * math.exp(-(tail + (n - 1) * step) / tau)
        if n > 1:
            credit += (step * math.exp(-tail / tau)
                       * math.expm1(-(n - 1) * step / tau)
                       / math.expm1(-step / tau))
        self._ema_add(job.proc, credit + tail)
        if self._slice_long:
            # untimed slice: the credit restarts at the first step end
            # with the quantum used up, then every ``per`` steps; a step
            # end reached at this very instant has not restarted it yet
            full = self.quantum
            ends = n if tail else n - 1
            used = job.turn_used + head  # at the first step end
            # (-(-a // b) is the ceiling of a / b)
            first = 1 if used >= full else 1 - (-(full - used) // step)
            if first <= ends:
                per = -(-full // step)
                last = first + (ends - first) // per * per
                job.turn_used = tail + (n - last) * step
                return
        job.turn_used += elapsed

    def _preempt_current(self, insert_pos: int = 0) -> None:
        job = self._current
        if job is None:
            return
        if self._slice_timer is not None:
            self._slice_timer.cancel()
            self._slice_timer = None
        self._account_current()
        self.n_context_switches += 1
        self._current = None
        if job.remaining == 0:
            if job.rows is None or not self._requeue_row(job):
                self._complete(job)
        else:
            job.proc.state = ProcState.READY
            job.allowed = None  # fresh quantum on its next dispatch
            job.turn_used = 0
            # preempted job keeps its turn (or yields to a waking one)
            self._queue.insert(min(insert_pos, len(self._queue)), job)
        self._start_next()

    def _on_slice_end(self) -> None:
        job = self._current
        if job is None:
            return
        self._slice_timer = None
        if job.step is not None and job.remaining == math.inf and not self._queue:
            # a spinning job whose competitors left mid-turn carries on
            # untimed, as its one-step requests each would have
            self._slice_long = True
            return
        self._account_current()
        self._current = None
        if job.cancelled:
            self._start_next()
            return
        if job.remaining == 0:
            if job.rows is not None and self._requeue_row(job):
                # nobody to wait for: the chain's next row is queued
                # where its own submit would have put it
                self._start_next()
                return
            self._complete(job)
            # Defer the next dispatch one event so the completing
            # process can resubmit at this instant and claim its
            # quantum continuation before anyone else is dispatched.
            # With nobody queued there is nothing to defer: a later
            # submit finds the CPU idle and starts at once.
            if self._queue:
                self.sim.call_soon(self._deferred_start)
            return
        self.n_context_switches += 1
        job.proc.state = ProcState.READY
        job.allowed = None  # fresh quantum on its next dispatch
        job.turn_used = 0
        self._queue.append(job)
        self._start_next()

    def _deferred_start(self) -> None:
        if self._current is None:
            self._start_next()

    def _complete(self, job: Job) -> None:
        job.proc.state = ProcState.BLOCKED
        self._last_done = (job.proc, self.sim.now)
        used = job.turn_used
        self._cont = (job.proc, self.sim.now, used) if used < self.quantum else None
        if job.callback is not None:
            # Defer so completion ordering matches event ordering.
            job.done_timer = self.sim.call_soon(job.callback, *job.cb_args)
