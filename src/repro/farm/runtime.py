"""The elastic task-farm runtime: master, workers, and the driver.

One master (rank 0) and ``size - 1`` workers run the protocol from
:mod:`repro.farm.protocol`.  Master-dispatch policies round-trip every
chunk through the master; the ``rma`` policy instead lets workers
claim chunks off a shared loop counter in the master's
:class:`~repro.mpi.rma.Window` with one-sided ``fetch_and_op`` — the
master only *consumes* results, it never sits on the dispatch path.

Elasticity model (how churn maps onto the farm):

* **crash** — a worker killed by a ``FailureScript`` is detected via
  the communicator's dead-rank poisoning; its in-flight chunk is
  requeued once (jobs already completed are skipped; a DONE still in
  flight at requeue time is deduplicated by the completed set).
* **park** — a worker whose node a ``LoadScript`` loads is parked:
  the master stops dispatching to it (RMA workers get a ``PARK``
  message and fall back to the dispatch loop) and its in-flight chunk
  is requeued once.  The worker still finishes that chunk — slowly,
  sharing its CPU — and the duplicate completions are deduplicated.
* **re-admit** — when the load clears, the worker is unparked and
  served chunks again.

The master never blocks in ``recv``: it probes its mailbox, consumes
what is there, and sleeps ``POLL_DT`` otherwise — so it always notices
deaths, load changes, and phase transitions.  The completed-result set
is bitwise-identical across policies, perturbation seeds, and churn
because job results are pure functions of the job id (see
:mod:`repro.farm.jobs`); the tests and the campaign oracle hold the
digest to that.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from ..errors import ConfigError, FarmError
from ..mpi import ANY_TAG, make_comm, run_spmd
from ..mpi.rma import Window
from ..simcluster import Compute, Sleep, to_s
from .jobs import (JobQueue, chunk_ids, chunk_rows, job_costs, job_results,
                   mask_digest)
from .policies import POLICIES, make_policy
from .protocol import (
    TAG_DONE,
    TAG_EXIT,
    TAG_PARK,
    TAG_READY,
    TAG_START,
    done_nbytes,
    start_nbytes,
)

__all__ = ["FarmSpec", "FarmResult", "run_farm"]

#: the cost-skew profiles :func:`repro.farm.jobs.job_costs` understands
SKEWS = ("uniform", "linear", "hot")

#: window layout for the rma policy: slot 0 is the shared loop counter
_COUNTER_SLOT = 0
_WIN_SLOTS = 2

#: work units per job before skew
BASE_COST = 1e4
#: master poll interval, simulated seconds
POLL_DT = 2e-4
#: never park below this many active workers
MIN_WORKERS = 1


@dataclass(frozen=True)
class FarmSpec:
    """Parameters of one farm run."""

    n_jobs: int = 1000
    policy: str = "self"        # static | self | guided | factoring | rma
    chunk: int = 8              # chunk size for self/rma dispatch
    skew: str = "hot"           # uniform | linear | hot (see jobs.job_costs)
    seed: int = 0               # result seed (job_results values)
    cycles: int = 8             # notify_cycle boundaries across the run
    name: str = "farm"

    def validate(self) -> None:
        if self.n_jobs <= 0:
            raise ConfigError(f"farm needs at least one job ({self.n_jobs})")
        if self.chunk <= 0:
            raise ConfigError(f"farm chunk must be positive ({self.chunk})")
        if self.cycles <= 0:
            raise ConfigError(f"farm cycles must be positive ({self.cycles})")
        if self.policy not in POLICIES:
            raise ConfigError(
                f"unknown farm policy {self.policy!r} (one of {POLICIES})")
        if self.skew not in SKEWS:
            raise ConfigError(
                f"unknown skew profile {self.skew!r} (one of {SKEWS})")


@dataclass(eq=False)
class FarmResult:
    """Everything a run produced, plus the accounting churn leaves.

    ``done[j]`` says whether job ``j`` completed and ``values[j]`` holds
    its result; :attr:`completed` is the same as a ``{job: result}``
    mapping, built on first read."""

    spec: FarmSpec
    done: np.ndarray
    values: np.ndarray
    jobs_done: int
    wall_time: float
    per_worker: dict[int, int] = field(default_factory=dict)
    duplicates: int = 0
    n_requeued: int = 0
    requeued: dict[int, int] = field(default_factory=dict)
    park_events: int = 0
    readmit_events: int = 0
    dead_workers: list[int] = field(default_factory=list)
    digest: str = field(init=False)

    def __post_init__(self) -> None:
        self.digest = mask_digest(self.done, self.values)

    @cached_property
    def completed(self) -> Mapping[int, int]:
        """Read-only ``{job: result}`` of every completed job."""
        jobs = np.flatnonzero(self.done)
        return MappingProxyType(
            dict(zip(jobs.tolist(), self.values[jobs].tolist())))

    @property
    def jobs_per_sec(self) -> float:
        """Simulated throughput: completed jobs per simulated second."""
        return self.jobs_done / self.wall_time if self.wall_time > 0 else 0.0


class _MasterState:
    """Mutable farm bookkeeping shared between the master and run_farm.

    Completion is a mask, not a set: ``done[j]`` / ``values[j]`` for
    every job id, and ``n_done`` of them set."""

    def __init__(self, spec: FarmSpec, workers: list[int]):
        self.done = np.zeros(spec.n_jobs, dtype=bool)
        self.values = np.zeros(spec.n_jobs, dtype=np.uint64)
        self.n_done = 0
        self.per_worker: dict[int, int] = {r: 0 for r in workers}
        self.duplicates = 0
        self.park_events = 0
        self.readmit_events = 0
        self.dead: set[int] = set()
        # rma workers claim off the counter; the queue serves requeues
        self.queue = JobQueue(range(0 if spec.policy == "rma" else spec.n_jobs))

    def merge(self, src: int, jobs, vals: np.ndarray) -> None:
        """Record worker ``src``'s DONE of chunk ``jobs``: a job's first
        report wins, every later one counts as a duplicate."""
        rows = chunk_rows(jobs)
        new = ~self.done[rows]
        if type(jobs) is not range and len(jobs) > 1:
            # a job listed twice in one chunk completes once, the first time
            first = np.zeros(len(jobs), dtype=bool)
            first[np.unique(jobs, return_index=True)[1]] = True
            new &= first
        n_new = int(np.count_nonzero(new))
        if n_new == len(jobs):
            self.done[rows] = True
            self.values[rows] = vals
        elif n_new:
            ids = chunk_ids(jobs)[new]
            self.done[ids] = True
            self.values[ids] = vals[new]
        self.n_done += n_new
        self.duplicates += len(jobs) - n_new
        if n_new:
            self.per_worker[src] = self.per_worker.get(src, 0) + n_new

    def unfinished(self, jobs) -> np.ndarray:
        """The ids of chunk ``jobs`` not completed yet, in chunk order."""
        ids = chunk_ids(jobs)
        return ids[~self.done[ids]]


def _price(jobs, costs: np.ndarray, results: np.ndarray) -> tuple:
    """Chunk ``jobs``' ``Compute`` work and its DONE payload.

    The work is the chunk's costs added left to right from ``0.0`` in
    ``jobs`` order: ``np.add.accumulate`` adds sequentially (``np.sum``
    pairs, ``sum()`` compensates on Python 3.12), and the ``+ 0.0`` is
    the loop's starting ``0.0`` (it turns a ``-0.0`` total into
    ``0.0``).  The payload is ``(jobs, results[jobs])``: for a range, a
    view of the read-only results table."""
    rows = chunk_rows(jobs)
    work = float(np.add.accumulate(costs[rows])[-1]) + 0.0
    return work, (jobs, results[rows])


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

def _farm_worker(ep, win, spec: FarmSpec, costs, results):
    """Worker body: RMA counter phase (policy ``rma``), then the
    classic dispatch loop until EXIT.  ``costs`` / ``results`` are the
    run's job tables (:func:`~repro.farm.jobs.job_costs`,
    :func:`~repro.farm.jobs.job_results`)."""
    obs = ep.comm.obs
    master = 0
    stats = {"jobs": 0, "chunks": 0}

    if spec.policy == "rma":
        yield from _rma_phase(ep, win, spec, costs, results, stats)
        yield from ep.send(master, TAG_READY, None)
    else:
        yield from ep.send(master, TAG_READY, None)

    while True:
        payload, status = yield from ep.recv(master, ANY_TAG)
        if status.tag == TAG_EXIT:
            break
        if status.tag == TAG_PARK:
            continue  # already out of the counter phase: nothing to stop
        jobs = payload
        work, done = _price(jobs, costs, results)
        t0 = obs.now() if obs is not None else 0.0
        yield Compute(work)
        if obs is not None:
            obs.complete("farm.chunk", t0, cat="farm", pid=ep.node_id,
                         tid=ep.rank, jobs=len(jobs))
        yield from ep.send(master, TAG_DONE, done,
                           nbytes=done_nbytes(len(jobs)))
        stats["jobs"] += len(jobs)
        stats["chunks"] += 1
    return stats


def _rma_phase(ep, win, spec: FarmSpec, costs, results, stats: dict):
    """Decentralized self-scheduling: claim fixed chunks off the
    master's loop counter with one-sided fetch_and_op; report each
    chunk with a fire-and-forget DONE.  Leaves on counter exhaustion
    or a PARK message."""
    obs = ep.comm.obs
    master = 0
    h = win.origin(ep.rank)
    yield from h.lock(master, shared=True)
    n = spec.n_jobs
    while True:
        if ep.iprobe(master, TAG_PARK) is not None:
            yield from ep.recv(master, TAG_PARK)
            break
        start = yield from h.fetch_and_op(master, _COUNTER_SLOT, spec.chunk)
        if start >= n:
            break
        jobs = range(start, min(n, start + spec.chunk))
        work, done = _price(jobs, costs, results)
        t0 = obs.now() if obs is not None else 0.0
        yield Compute(work)
        if obs is not None:
            obs.complete("farm.chunk", t0, cat="farm", pid=ep.node_id,
                         tid=ep.rank, jobs=len(jobs))
        # fire-and-forget: the master consumes this without replying,
        # so the worker goes straight back to the counter
        yield from ep.isend(master, TAG_DONE, done, nbytes=done_nbytes(len(jobs)))
        stats["jobs"] += len(jobs)
        stats["chunks"] += 1
    yield from h.unlock(master)


# ---------------------------------------------------------------------------
# master side
# ---------------------------------------------------------------------------

def _farm_master(ep, win, cluster, spec: FarmSpec, state: _MasterState):
    comm = ep.comm
    obs = comm.obs
    workers = list(range(1, comm.size))
    rma_mode = spec.policy == "rma"
    n_jobs = spec.n_jobs
    queue = state.queue
    policy = make_policy(spec.policy, n_jobs, len(workers), spec.chunk)

    ready: set[int] = set()
    inflight: dict[int, object] = {}
    parked: set[int] = set()
    #: rma: workers still claiming off the counter (none in classic)
    counter_live: set[int] = set(workers) if rma_mode else set()
    rma_drained = not rma_mode
    #: the load version and dead count the parking pass last saw: with
    #: neither changed, ``desired`` is what it was and the pass is a no-op
    seen_load = seen_dead = -1
    live = workers

    jobs_per_cycle = max(1, n_jobs // spec.cycles)
    next_cycle = 1

    while True:
        progressed = False

        # -- consume everything queued at the master -------------------
        while ep.iprobe() is not None:
            # wildcard receive: messages from since-dead workers stay
            # consumable, and multi-source ties take the perturbable
            # path — the consumer keys everything by status.source and
            # dedups by the completion mask, so the pick cannot change
            # the result (test_perturb_invariance_across_seeds)
            payload, status = yield from ep.recv()
            src, tag = status.source, status.tag
            progressed = True
            if tag == TAG_READY:
                ready.add(src)
                counter_live.discard(src)
            elif tag == TAG_DONE:
                state.merge(src, *payload)
                if obs is not None and len(payload[0]):
                    obs.rank_registry(0).count("farm.jobs_done", len(payload[0]))
                inflight.pop(src, None)
                # counter-phase DONEs are fire-and-forget chunk reports;
                # a dispatched worker's DONE doubles as its next READY
                if src not in counter_live:
                    ready.add(src)

        # -- deaths ----------------------------------------------------
        for r in comm.dead_ranks():
            if r in state.dead or r == 0:
                continue
            state.dead.add(r)
            ready.discard(r)
            parked.discard(r)
            counter_live.discard(r)
            n_lost = queue.requeue(state.unfinished(inflight.pop(r, range(0))))
            if obs is not None:
                obs.instant("farm.crash_requeue", cat="farm", pid=-1, tid=0,
                            worker=r, requeued=n_lost)
            progressed = True

        # -- load-driven parking / re-admission ------------------------
        if cluster.load_version != seen_load or len(state.dead) != seen_dead:
            seen_load, seen_dead = cluster.load_version, len(state.dead)
            live = [r for r in workers if r not in state.dead]
            counts = cluster.competing_counts()
            desired = {r for r in live if counts[comm.node_of(r)] > 0}
            excess = len(live) - len(desired)
            if excess < MIN_WORKERS:
                for r in sorted(desired)[:MIN_WORKERS - excess]:
                    desired.discard(r)
            for r in sorted(desired - parked):
                parked.add(r)
                state.park_events += 1
                if r in counter_live and not comm.rank_failed(r):
                    yield from ep.send(r, TAG_PARK, None)
                n_lost = queue.requeue(
                    state.unfinished(inflight.pop(r, range(0))))
                if obs is not None:
                    obs.instant("farm.park", cat="farm", pid=-1, tid=0,
                                worker=r, requeued=n_lost)
                progressed = True
            for r in sorted(parked - desired):
                parked.discard(r)
                state.readmit_events += 1
                if obs is not None:
                    obs.instant("farm.readmit", cat="farm", pid=-1, tid=0,
                                worker=r)
                progressed = True
        if not live and state.n_done < n_jobs:
            raise FarmError(
                f"farm '{spec.name}': every worker died with "
                f"{n_jobs - state.n_done} job(s) outstanding"
            )

        # -- rma phase end: account for jobs lost to dead claimants ----
        if not rma_drained and not counter_live:
            rma_drained = True
            claimed = min(n_jobs, int(win.local(0)[_COUNTER_SLOT]))
            n_lost = queue.requeue(state.unfinished(range(claimed)))
            queue.extend(range(claimed, n_jobs))
            if obs is not None:
                obs.instant("farm.drain", cat="farm", pid=-1, tid=0,
                            claimed=claimed, requeued=n_lost)
            progressed = True

        # -- cycle boundaries (drive Load/Failure cycle triggers) ------
        while (next_cycle <= spec.cycles
               and state.n_done >= next_cycle * jobs_per_cycle):
            cluster.notify_cycle(next_cycle)
            next_cycle += 1

        # -- dispatch --------------------------------------------------
        if len(queue):
            # parked workers are live ones (a death unparks)
            active = max(1, len(live) - len(parked))
            for r in sorted(ready):
                # the snapshot in state.dead can go stale mid-loop: a
                # deferred kill may land during a previous dispatch's
                # send, so re-check liveness right before each send
                if (r in parked or r in state.dead
                        or comm.rank_failed(r) or not len(queue)):
                    continue
                jobs = queue.take(policy.next_chunk(len(queue), active))
                if not len(jobs):
                    break
                inflight[r] = jobs
                ready.discard(r)
                yield from ep.send(r, TAG_START, jobs,
                                   nbytes=start_nbytes(len(jobs)))
                if obs is not None:
                    obs.rank_registry(0).count("farm.dispatches", 1)
                progressed = True

        # -- done? -----------------------------------------------------
        if (state.n_done >= n_jobs and rma_drained
                and all(r in ready for r in live)):
            break
        if not progressed:
            yield Sleep(POLL_DT)

    # late cycle boundaries (tiny farms may complete inside cycle 1)
    while next_cycle <= spec.cycles:
        cluster.notify_cycle(next_cycle)
        next_cycle += 1

    for r in sorted(set(workers) - state.dead):
        if not comm.rank_failed(r):
            yield from ep.send(r, TAG_EXIT, None)
    return state.n_done


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run_farm(cluster, spec: FarmSpec, *, load_script=None,
             failure_script=None) -> FarmResult:
    """Run one farm on ``cluster``; returns the :class:`FarmResult`.

    Rank 0 (the master) lives on node 0; every other node hosts one
    worker.  ``load_script``/``failure_script`` are installed before
    the run when given — their cycle triggers fire at the farm's
    completion-count boundaries (``spec.cycles`` per run), their time
    triggers at the scheduled simulated times.
    """
    spec.validate()
    comm = make_comm(cluster)
    if comm.size < 2:
        raise ConfigError("a farm needs a master and at least one worker")
    for script in (load_script, failure_script):
        if script is not None:
            cluster.install_script(script)

    win = Window(comm, _WIN_SLOTS, name=spec.name)
    state = _MasterState(spec, list(range(1, comm.size)))
    # every job priced once per run; the workers index these tables, and
    # a DONE payload may be a view of ``results``, so nobody may write it
    costs = job_costs(spec.n_jobs, BASE_COST, spec.skew)
    results = job_results(spec.n_jobs, spec.seed)
    results.flags.writeable = False

    def program(ep):
        if ep.rank == 0:
            return _farm_master(ep, win, cluster, spec, state)
        return _farm_worker(ep, win, spec, costs, results)

    t0 = cluster.sim.now
    run_spmd(cluster, program, comm=comm, name="farm")

    return FarmResult(
        spec=spec,
        done=state.done,
        values=state.values,
        jobs_done=state.n_done,
        wall_time=to_s(cluster.sim.now - t0),
        per_worker=dict(sorted(state.per_worker.items())),
        duplicates=state.duplicates,
        n_requeued=state.queue.n_requeued,
        requeued=dict(sorted(state.queue.requeued.items())),
        park_events=state.park_events,
        readmit_events=state.readmit_events,
        dead_workers=sorted(state.dead),
    )
