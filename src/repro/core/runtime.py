"""The Dyn-MPI runtime (paper Sections 2 and 4).

:class:`DynMPIJob` is the job-level object: it owns the communicator,
the ``dmpi_ps`` daemons, the comm cost model and the shared rank
groups.  :class:`DynMPI` is one rank's context — the object a Dyn-MPI
program drives, mirroring the paper's API:

===========================  =======================================
paper                        here
===========================  =======================================
DMPI_init                    DynMPIJob(...) + program launch
DMPI_register_dense_array    ctx.register_dense(...)
DMPI_register_sparse_array   ctx.register_sparse(...)
DMPI_init_phase              ctx.init_phase(...)
DMPI_add_array_access        ctx.add_array_access(...)
DMPI_get_start_iter          ctx.start_iter()
DMPI_get_end_iter            ctx.end_iter()
DMPI_participating           ctx.participating()
DMPI_get_rel_rank            ctx.rel_rank()
DMPI_get_num_active          ctx.num_active()
DMPI_Send / DMPI_Recv        ctx.send_rel(...) / ctx.recv_rel(...)
===========================  =======================================

plus ``begin_cycle`` / ``end_cycle`` which bracket every phase cycle
and drive the adaptation state machine:

NORMAL --(dmpi_ps load change)--> GRACE (5 cycles: measure per-
iteration unloaded times via /PROC or min-filtered gethrtime)
--> redistribute (successive balancing -> variable block -> DRSD-driven
row movement) --> POST (10 cycles: measure average cycle time)
--> drop decision (predicted unloaded-only config vs measured) -->
NORMAL; a rejoin or a crash recovery returns to NORMAL from any mode.

One replicated view, one ``_apply``.  All adaptation decisions are
pure functions of data every active rank possesses identically
(allgathered loads, iteration times, cycle times), so ranks stay in
lockstep without extra coordination — the same property the real
Dyn-MPI relies on.  The planners of :mod:`.transition` turn that
replicated ``View`` into a ``Transition``, once per adaptation per job
(:meth:`DynMPI._decide`); :meth:`DynMPI._apply` is the only code that
moves rows and, through :meth:`DynMPI._install`, the only code that
writes the view after ``commit()``.  Whatever the members of a cycle
derive alike — the decision, each row move's plan (verified there when
the sanitizer is on), a collected array — the first derives into one
job-level table, ``DynMPIJob._epochs``, and the rest take it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Callable, Generator, Optional, Sequence

import numpy as np

from ..config import RuntimeSpec
from ..dmem import MemCostModel, ProjectedArray, SparseMatrix
from ..errors import (CheckpointLostError, RegistrationError, SanitizerError,
                      SimulationError)
from ..mpi import Endpoint, Group, make_comm
from ..mpi import collectives as coll
from ..mpi.datatypes import SUM, ReduceOp
from ..obs.recorder import JOB_PID
from ..resilience.checkpoint import CheckpointStore, checkpoint_exchange, snapshot
from ..resilience.failures import terminate_rank
from ..simcluster import Cluster, Compute, ProcState, to_s
from ..sysmon import DmpiPs, HrTimer, ProcClock
from .commcost import CommCostModel, PhasePattern
from .distribution import BlockDistribution
from .drsd import DRSD
from .loadmon import FailureDetector, LoadMonitor
from .phase import Phase
from .redistribute import needed_map, plan_edges, redistribute
from .removal import evaluate_drop
from .timing import GraceSamples, estimate_unloaded_times, timed_rows
from .transition import MODE_GRACE, MODE_NORMAL, MODE_POST, Transition, View
from .transition import plan_drop, plan_rebalance, plan_recovery, plan_rejoin

__all__ = ["DynMPIJob", "DynMPI", "RuntimeEvent"]

_CTRL_TAG = (1 << 29) + 7   # control messages to removed ranks (send-out)
_TOKEN_TAG = (1 << 29) + 8  # per-cycle token: active root -> removed ranks
_LOAD_TAG = (1 << 29) + 9   # load updates: removed ranks -> active root


@dataclass
class RuntimeEvent:
    """One adaptation event, for experiment reporting."""

    kind: str  # "redistribute" | "drop" | "logical_drop" | "rejoin" | "crash_recovery"
    cycle: int
    time: float
    duration: float = 0.0
    detail: dict = field(default_factory=dict)


class DynMPIJob:
    """Job-level state shared by all ranks (one per application run)."""

    def __init__(
        self,
        cluster: Cluster,
        spec: Optional[RuntimeSpec] = None,
        *,
        adaptive: bool = True,
        mem_model: Optional[MemCostModel] = None,
    ):
        self.cluster = cluster
        self.spec = spec or RuntimeSpec()
        self.adaptive = adaptive
        self.comm = make_comm(cluster)
        self.ps = DmpiPs(cluster, self.spec.daemon_interval)
        self.hr = HrTimer(cluster.sim)
        self.mem_model = mem_model or MemCostModel()
        self.comm_model = CommCostModel.from_spec(
            cluster.spec.network, cluster.spec.node.speed
        )
        self.ref_speed = cluster.spec.node.speed
        #: the adaptations applied so far, in order — the same list
        #: whether or not the run is observed
        self.events: list[RuntimeEvent] = []
        self.contexts: list["DynMPI"] = []
        self._groups: dict[tuple, Group] = {}
        #: what the members of a cycle derive alike, derived once by
        #: the first (every member has the same inputs, the Section 4.4
        #: no-negotiation property; n times would be O(n^2) at 1024
        #: ranks): cycle -> {key by value: a decision, a row move's
        #: needed map and send plan, a collected array, the lockstep
        #: fingerprint}.  One lifetime rule: an active rank beginning
        #: cycle c drops c - 2, and launch() drops the rest.  Safe
        #: because the control allgather keeps active ranks within a
        #: cycle of each other, and a rank dropped in c hands its rows
        #: to ranks active in c + 1; removed ranks drop nothing (a
        #: parked rank follows the root's tokens, one that cannot
        #: rejoin runs ahead)
        self._epochs: dict[int, dict] = {}
        self._launched = False
        #: heartbeat crash detector (repro.resilience); None unless a
        #: ResilienceSpec is attached to the runtime spec
        self.detector: Optional[FailureDetector] = None
        if self.spec.resilience is not None:
            self.detector = FailureDetector(
                self.ps,
                self.spec.resilience.resolve_timeout(self.spec.daemon_interval),
            )

    def group_for(self, world_ranks: tuple) -> Group:
        """Shared Group per rank set (tag counters must be common)."""
        g = self._groups.get(world_ranks)
        if g is None:
            g = Group(list(world_ranks))
            self._groups[world_ranks] = g
        return g

    def launch(self, program: Callable[..., Any], args: tuple = ()) -> list[Any]:
        """Run ``program(ctx, *args)`` on every rank to completion."""
        if self._launched:
            raise SimulationError("job already launched")
        self._launched = True
        self.ps.start()
        procs = []
        for rank in range(self.comm.size):
            ctx = DynMPI(self, self.comm.endpoint(rank))
            self.contexts.append(ctx)
            gen = program(ctx, *args)
            if not hasattr(gen, "send"):
                raise RegistrationError("program must be a generator function")
            node = self.cluster.nodes[self.comm.node_of(rank)]
            proc = self.cluster.sim.spawn(gen, name=f"rank{rank}", node=node)
            ctx._bind_process(proc)
            self.ps.register_monitored(node.node_id, proc)
            self.cluster.register_app_proc(node.node_id, proc)
            # dead-endpoint poisoning: a rank death turns peers' blocked
            # operations into RankFailedError instead of a hang
            self.comm.watch_rank(rank, proc)
            procs.append(proc)

        board = self.cluster.failure_board

        def expected_death(proc) -> bool:
            rank = procs.index(proc)
            ctx = self.contexts[rank]
            return ctx.crashed or board.failed(self.comm.node_of(rank))

        try:
            self.cluster.sim.run_all(procs, tolerate=expected_death)
        finally:
            self._epochs.clear()  # nothing shared outlives the run
        if self.cluster.sanitizer is not None:
            # a rank still parked at the end leaves its last load report
            # unread whenever it ran behind the root's final poll
            self.cluster.sanitizer.finalize(advisory_tags=(_LOAD_TAG,))
        return [p.result for p in procs]


class DynMPI:
    """One rank's Dyn-MPI context."""

    MODE_NORMAL = MODE_NORMAL
    MODE_GRACE = MODE_GRACE
    MODE_POST = MODE_POST

    @property
    def job(self) -> DynMPIJob:
        """The owning job, held weakly: ``job.contexts`` is the strong
        direction, so dropping a finished job frees every rank's arrays
        by reference counting.  Held strongly, job and contexts form a
        cycle and a finished run's arrays stay allocated until the next
        full garbage collection — a program that runs many jobs in a
        row then peaks at two live data sets or one depending on where
        that collection happens to fall."""
        return self._job()

    def __init__(self, job: DynMPIJob, ep: Endpoint):
        self._job = weakref.ref(job)
        self.ep = ep
        self.spec = job.spec
        self.world_rank = ep.rank
        self.node_id = ep.node_id
        self.active = True
        self.active_group = job.group_for(tuple(range(ep.size)))
        self.arrays: dict[str, object] = {}
        self.phases: dict[int, Phase] = {}
        self.loop_size: Optional[int] = None
        self.bounds: Optional[tuple] = None  # per active rel rank
        self._nn: tuple = (None, None)  # nn_neighbors(), set with bounds
        self.mode = self.MODE_NORMAL
        self.cycle = -1
        self.monitor = LoadMonitor()
        self.loads: Optional[np.ndarray] = None
        self.row_weights: Optional[np.ndarray] = None  # seconds/iter, unloaded
        self.last_estimate_source = "none"
        #: dynscope recorder, or None when observability is off (the
        #: hot-path guard — one None test per instrumented site)
        self.obs = job.cluster.obs
        self.proc = None
        self.proc_clock: Optional[ProcClock] = None
        self._committed = False
        #: the registration by value, frozen by commit(): part of every
        #: row move's key, so a rank registered differently misses
        self._registration: tuple = ()
        self._grace: dict[int, GraceSamples] = {}
        self._grace_count = 0
        self._post_count = 0
        self._post_times: list[float] = []
        self._cycle_t0 = 0  # hrtimer ns
        self.cycle_times: list[float] = []
        self.cycle_stamps: list[tuple[float, float]] = []  # (begin, end) sim seconds
        self.n_redistributions = 0
        self._removed_loads: dict[int, int] = {}  # rejoin bookkeeping (rel 0)
        self._token_root = 0  # world rank that sends this removed rank tokens
        # -- resilience (repro.resilience) ------------------------------
        #: set by terminate_rank when this rank dies to an injected
        #: crash, so the launcher can tell it from an application bug
        self.crashed = False
        #: world ranks every survivor agrees are dead
        self.dead_world: set[int] = set()
        self._ckpt_store: Optional[CheckpointStore] = (
            CheckpointStore() if job.spec.resilience is not None else None
        )
        #: forces a checkpoint at the next cycle regardless of the
        #: interval — set after every bounds/group change so a stored
        #: replica's bounds always match the live distribution
        self._ckpt_due = True

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def _bind_process(self, proc) -> None:
        self.proc = proc
        self.proc_clock = ProcClock(proc, self.spec.proc_granularity)

    # ------------------------------------------------------------------
    # registration (paper: DMPI_register_*, DMPI_init_phase, ...)
    # ------------------------------------------------------------------
    def register_dense(
        self,
        name: str,
        shape: Sequence[int],
        dtype=np.float64,
        *,
        materialized: bool = True,
    ) -> ProjectedArray:
        self._check_not_committed(name)
        arr = ProjectedArray(name, shape, dtype, materialized=materialized)
        self.arrays[name] = arr
        return arr

    def register_sparse(
        self, name: str, shape: tuple[int, int], dtype=np.float64
    ) -> SparseMatrix:
        self._check_not_committed(name)
        arr = SparseMatrix(name, shape, dtype)
        self.arrays[name] = arr
        return arr

    def _check_not_committed(self, name: str) -> None:
        if self._committed:
            raise RegistrationError("cannot register after commit()")
        if name in self.arrays:
            raise RegistrationError(f"array {name!r} already registered")

    def init_phase(self, phase_id: int, n_iters: int, pattern: PhasePattern) -> None:
        if self._committed:
            raise RegistrationError("cannot add phases after commit()")
        if phase_id in self.phases:
            raise RegistrationError(f"phase {phase_id} already declared")
        if self.loop_size is None:
            self.loop_size = n_iters
        elif n_iters != self.loop_size:
            raise RegistrationError(
                f"all phases must share the partitioned loop size "
                f"({self.loop_size}); phase {phase_id} has {n_iters}"
            )
        self.phases[phase_id] = Phase(phase_id, n_iters, pattern)

    def add_array_access(
        self,
        phase_id: int,
        array: str,
        mode: str,
        lo_off: int = 0,
        hi_off: int = 0,
        step: int = 1,
    ) -> None:
        if self._committed:
            raise RegistrationError("cannot add array accesses after commit()")
        if phase_id not in self.phases:
            raise RegistrationError(f"unknown phase {phase_id}")
        if array not in self.arrays:
            raise RegistrationError(f"unknown array {array!r}")
        self.phases[phase_id].add_access(DRSD(array, mode, lo_off, hi_off, step))

    def commit(self) -> None:
        """Finish registration: validate, set the initial even block
        distribution, and allocate the initially needed rows."""
        if self._committed:
            raise RegistrationError("commit() called twice")
        if not self.phases:
            raise RegistrationError("no phases declared")
        if self.loop_size is None:
            raise RegistrationError("loop size undetermined")
        for phase in self.phases.values():
            for acc in phase.accesses:
                arr = self.arrays[acc.array]
                if arr.n_rows < self.loop_size:
                    raise RegistrationError(
                        f"array {acc.array!r} has {arr.n_rows} rows but the "
                        f"partitioned loop needs {self.loop_size}"
                    )
        # by value: DRSDs are frozen dataclasses
        self._registration = (
            tuple((pid, tuple(ph.accesses))
                  for pid, ph in sorted(self.phases.items())),
            tuple(sorted(self._array_rows().items())),
        )
        n = self.active_group.size
        self.bounds = self._shared(
            ("initial", self.loop_size, n),
            lambda: BlockDistribution.even(self.loop_size, n).bounds,
        )
        self._nn = self._owned_neighbors()
        needed, _ = self._move(None, self.bounds)
        me = self.active_group.rel(self.world_rank)
        for name, arr in self.arrays.items():
            arr.hold(needed[me][name])
        # baseline load expectation: all nodes unloaded
        self.monitor.rebase([1] * self.active_group.size)
        self._committed = True

    # ------------------------------------------------------------------
    # queries (paper: DMPI_get_*, DMPI_participating)
    # ------------------------------------------------------------------
    def participating(self) -> bool:
        return self.active

    def rel_rank(self) -> int:
        return self.active_group.rel(self.world_rank)

    def num_active(self) -> int:
        return self.active_group.size

    def my_bounds(self) -> tuple[int, int]:
        """(start_iter, end_iter) inclusive; (0, -1) when empty."""
        if not self.active:
            return (0, -1)
        b = self.bounds[self.rel_rank()]
        return (0, -1) if b is None else b

    def start_iter(self) -> int:
        return self.my_bounds()[0]

    def end_iter(self) -> int:
        return self.my_bounds()[1]

    def nn_neighbors(self) -> tuple[Optional[int], Optional[int]]:
        """(left, right) relative ranks among ranks that own rows —
        the neighbor set for nearest-neighbor exchanges."""
        return self._nn if self.active else (None, None)

    def _owned_neighbors(self) -> tuple[Optional[int], Optional[int]]:
        """The pair :meth:`nn_neighbors` returns, derived whenever
        ``bounds`` is written (by ``commit()`` and :meth:`_install`)."""
        if not self.active:
            return (None, None)
        bounds = self.bounds
        me = self.rel_rank()
        if bounds[me] is None:
            return (None, None)
        left = next((r for r in range(me - 1, -1, -1)
                     if bounds[r] is not None), None)
        right = next((r for r in range(me + 1, len(bounds))
                      if bounds[r] is not None), None)
        return (left, right)

    def array(self, name: str):
        return self.arrays[name]

    # ------------------------------------------------------------------
    # relative-rank communication (paper: DMPI_Send / DMPI_Recv)
    # ------------------------------------------------------------------
    def send_rel(self, dst_rel: int, tag: int, payload=None, nbytes=None) -> Generator:
        yield from self.ep.send(self.active_group.world(dst_rel), tag, payload, nbytes)

    def recv_rel(self, src_rel: int, tag: int) -> Generator:
        result = yield from self.ep.recv(self.active_group.world(src_rel), tag)
        return result

    def sendrecv_rel(self, dst_rel, send_tag, payload, src_rel, recv_tag,
                     nbytes=None) -> Generator:
        result = yield from self.ep.sendrecv(
            self.active_group.world(dst_rel), send_tag, payload,
            self.active_group.world(src_rel), recv_tag, nbytes=nbytes,
        )
        return result

    def allreduce_active(self, value, op: ReduceOp = SUM) -> Generator:
        result = yield from coll.allreduce(self.ep, self.active_group, value, op)
        return result

    def allgather_active(self, value) -> Generator:
        result = yield from coll.allgather(self.ep, self.active_group, value)
        return result

    def assemble_shared(self, name: str, gathered: list,
                        assemble: Callable[[list], np.ndarray]) -> np.ndarray:
        """``assemble(gathered)`` once per collect per job, read-only and
        shared by every active member.  After :meth:`allgather_active`
        every member holds the same contribution objects in the same
        order (payloads travel by reference), so the first to arrive
        assembles and parks the array; a member takes it only if its
        own gathered list is element for element those same objects.
        A divergent replica, or a tap that copied payloads, assembles
        its own instead of sharing a wrong array; so does the first
        member of a second collect in the same cycle, whose array the
        others then share."""
        epoch = self.job._epochs.setdefault(self.cycle, {})
        key = ("collect", name, tuple(self.active_group.ranks))
        hit = epoch.get(key)
        if hit is not None and all(a is b for a, b in zip(hit[0], gathered)):
            return hit[1]
        out = assemble(gathered)
        out.setflags(write=False)
        epoch[key] = (gathered, out)
        return out

    def bcast_active(self, value=None, root: int = 0) -> Generator:
        result = yield from coll.bcast(self.ep, self.active_group, value, root)
        return result

    def global_reduce(self, value, op: ReduceOp = SUM) -> Generator:
        """Global reduction with the paper's send-in/send-out rule:
        removed ranks contribute nothing (no send-in) but still receive
        the result (send-out), keeping their global state current."""
        removed = self._removed_world_ranks()
        if self.active:
            result = yield from coll.allreduce(self.ep, self.active_group, value, op)
            if removed and self.rel_rank() == 0:
                for w in removed:
                    yield from self.ep.isend(w, _CTRL_TAG, result)
            return result
        result, _ = yield from self.ep.recv(tag=_CTRL_TAG)
        return result

    def _removed_world_ranks(self) -> list[int]:
        return [
            w for w in range(self.ep.size)
            if w not in self.active_group and w not in self.dead_world
        ]

    # ------------------------------------------------------------------
    # the phase cycle
    # ------------------------------------------------------------------
    def begin_cycle(self) -> Generator:
        if not self._committed:
            raise RegistrationError("commit() must be called before cycles")
        self.cycle += 1
        # the cycle notifier is the lowest-ranked *surviving* rank, so
        # cycle-triggered scripts keep firing if rank 0 crashes
        notifier = 0
        if self.dead_world:
            notifier = min(
                w for w in range(self.ep.size) if w not in self.dead_world
            )
        if self.world_rank == notifier:
            self.job.cluster.notify_cycle(self.cycle)
        if not self.active:
            if self.spec.allow_rejoin:
                yield from self._removed_cycle()
            return
        self.job._epochs.pop(self.cycle - 2, None)  # see DynMPIJob._epochs
        self._cycle_t0 = self.job.hr.read()
        if not self.job.adaptive:
            return
        loads, rejoining, dead = yield from self._control()
        if dead:
            yield from self._recover(dead)
            return  # next cycle starts fresh over the survivor group
        if self.spec.allow_rejoin:
            rejoin = (self._decide(
                ("rejoin", self.loop_size, rejoining),
                lambda view: plan_rejoin(view, self.loop_size, rejoining),
            ) if rejoining else None)
            yield from self._send_tokens(rejoin)
            if rejoin is not None:
                yield from self._apply(rejoin)
                return  # next cycle starts fresh over the new group
        self.loads = np.asarray(loads, dtype=int)
        if self.monitor.observe(loads, self.cycle):
            self._enter_grace()  # (re)start with fresh measurements

    def _control(self) -> Generator:
        """The per-cycle control exchange, returning ``(loads,
        rejoining, dead)``.  The allgathered record is ``load``,
        ``(load, rejoin_candidates)`` with ``allow_rejoin``, or ``(load,
        rejoin_candidates, suspected_dead)`` with a ResilienceSpec.
        Rel-0's candidates and suspicions are authoritative, so every
        active rank — a crash victim included, since a crashed node
        fail-stops at the boundary — acts on one consistent verdict.
        Checkpoints are exchanged *first*, so the snapshot a buddy may
        replay this cycle is exactly the state at this cycle boundary."""
        if self.job.cluster.sanitizer is not None:
            self._check_lockstep()
        resilient = self.spec.resilience is not None
        if resilient:
            yield from self._maybe_checkpoint()
        record = int(self.job.ps.load(self.node_id))
        if resilient or self.spec.allow_rejoin:
            record = (record, (yield from self._poll_rejoin_candidates()))
            if resilient:
                record += (self._suspect_failures(),)
        gathered = yield from coll.allgather_dissemination(
            self.ep, self.active_group, record
        )
        if isinstance(record, int):
            return gathered, (), ()
        head = gathered[0]
        return [g[0] for g in gathered], head[1], head[2] if resilient else ()

    def _view(self) -> View:
        """This rank's copy of the replicated adaptation state."""
        return View(
            tuple(self.active_group.ranks), self.bounds, self.loads,
            self.row_weights, self.n_redistributions, self.mode,
            tuple(sorted(self.dead_world)),
        )

    def _check_lockstep(self) -> None:
        """(sanitizer) A replica that diverged from the first rank's to
        reach this cycle fails here, not as corrupted rows later."""
        mine = self._view().fingerprint()
        first = self._shared(("lockstep",), lambda: (self.world_rank, mine))
        for name, a, b in zip(View._fields, first[1], mine):
            if a != b:
                raise SanitizerError(
                    f"ranks {first[0]} and {self.world_rank} disagree on "
                    f"replicated {name!r} entering cycle {self.cycle}"
                )

    def _maybe_checkpoint(self) -> Generator:
        """Ring-exchange checkpoints every ``checkpoint_interval``
        cycles (or when a group/bounds change forced one).  All active
        ranks take the same branch: ``cycle`` and ``_ckpt_due`` evolve
        in lockstep."""
        res = self.spec.resilience
        if self.cycle % res.checkpoint_interval and not self._ckpt_due:
            return
        self._ckpt_due = False
        t0 = self.obs.now() if self.obs is not None else 0.0
        ckpt = snapshot(
            self.arrays, self.bounds[self.rel_rank()],
            self.world_rank, self.cycle,
        )
        yield from checkpoint_exchange(
            self.ep, self.active_group, self._ckpt_store, ckpt,
            res.replication,
        )
        if self.obs is not None:
            self.obs.complete(
                "ckpt.exchange", t0, cat="ckpt",
                pid=self.node_id, tid=self.world_rank,
                cycle=self.cycle, nbytes=ckpt.nbytes,
            )

    def _suspect_failures(self) -> tuple:
        """(active rel 0 only) World ranks whose node is suspected dead
        by the heartbeat detector.  A rank that finished its program is
        not a failure; self-suspicion is allowed so a crash of rel 0
        itself is still announced (cooperative fail-stop lets the
        victim publish its own death sentence)."""
        if self.rel_rank() != 0 or self.job.detector is None:
            return ()
        dead = []
        suspect = self.job.detector.suspect
        node_of = self.job.comm.node_of
        for w in range(self.ep.size):
            if w in self.dead_world:
                continue
            proc = self.job.contexts[w].proc if w < len(self.job.contexts) else None
            if proc is not None and proc.state == ProcState.DONE:
                continue
            if suspect(node_of(w)):
                dead.append(w)
        return tuple(sorted(dead))

    def _recover(self, dead: tuple) -> Generator:
        """Every active rank runs this with the same ``dead`` set.  The
        victims self-terminate; the survivors excise them like an
        involuntary Section 4.4 removal, with the checkpoint holders
        standing in for the dead ranks' send-out."""
        t0 = self.job.hr.read()
        if self.world_rank in dead:
            yield from terminate_rank(self)  # never returns
        replication = self.spec.resilience.replication
        array_rows = self._array_rows()
        plan = self._decide(
            ("recovery", self.loop_size, dead, replication,
             tuple(sorted(array_rows.items()))),
            lambda view: plan_recovery(view, self.loop_size, dead,
                                       replication, array_rows),
        )
        if self.spec.allow_rejoin:
            yield from self._send_tokens(plan)
        yield from self._apply(plan, t0)
        if self.obs is not None:
            self.obs.complete(
                "recover.crash", to_s(t0), cat="recover",
                pid=self.node_id, tid=self.world_rank,
                cycle=self.cycle, n_dead=len(dead),
            )

    # ------------------------------------------------------------------
    # node rejoin (paper Section 2.2 "potentially later add back" /
    # Section 6 future work) — enabled with RuntimeSpec.allow_rejoin
    # ------------------------------------------------------------------
    def _removed_cycle(self) -> Generator:
        """One phase cycle on a physically removed rank: publish the
        local load to the active root and consume the root's per-cycle
        token, which either keeps us parked or re-admits us."""
        load = (self.world_rank, int(self.job.ps.load(self.node_id)))
        yield from self.ep.isend(self._token_root, _LOAD_TAG, load)
        token, _ = yield from self.ep.recv(tag=_TOKEN_TAG)
        kind, root, payload = token
        self._token_root = root
        if kind == "rejoin":
            # the same Transition the active ranks apply this cycle
            yield from self._apply(payload)
            self._cycle_t0 = self.job.hr.read()
        elif kind == "dead":
            # this parked rank's node crashed: the root's token is its
            # death sentence (the one message it still consumes)
            yield from terminate_rank(self, reason="crashed while parked")
        elif kind == "noop" and payload:
            # keep the death record current so the notifier choice
            # stays consistent across parked and active ranks
            self.dead_world.update(payload)

    def _poll_rejoin_candidates(self) -> Generator:
        """(active rel 0 only) Drain pending load updates from removed
        ranks; return the world ranks whose load has cleared."""
        if self.rel_rank() != 0 or not self.spec.allow_rejoin:
            return ()
        while self.ep.iprobe(tag=_LOAD_TAG) is not None:
            (world, load), _status = yield from self.ep.recv(tag=_LOAD_TAG)
            self._removed_loads[world] = load
        removed = set(self._removed_world_ranks())
        return tuple(sorted(
            w for w, load in self._removed_loads.items()
            if w in removed and load <= 1
        ))

    def _send_tokens(self, plan: Optional[Transition]) -> Generator:
        """(the root only: the lowest active rank that survives this
        cycle's ``plan``) One token per parked rank per cycle — its
        death sentence if the plan declares it dead, the plan itself if
        that re-admits it, the death record otherwise."""
        dead = (tuple(sorted(self.dead_world)) if plan is None
                else plan.after.dead_world)
        root = next(w for w in self.active_group.ranks if w not in dead)
        if self.world_rank != root:
            return
        noop = ("noop", root, dead or None)
        admitted = () if plan is None else plan.after.world
        for w in self._removed_world_ranks():
            token = (("dead", root, None) if w in dead
                     else ("rejoin", root, plan) if w in admitted else noop)
            yield from self.ep.isend(w, _TOKEN_TAG, token)

    def _enter_grace(self) -> None:
        if (
            self.spec.max_redistributions
            and self.n_redistributions >= self.spec.max_redistributions
        ):
            return  # redistribution budget exhausted (Figure 5 "Once")
        self.mode = self.MODE_GRACE
        self._grace = {}
        self._grace_count = 0
        if self.obs is not None and self.rel_rank() == 0:
            self.obs.instant(
                "adapt.grace_enter", cat="adapt", pid=JOB_PID, tid=0,
                cycle=self.cycle,
                loads=[] if self.loads is None else self.loads.tolist(),
            )

    def end_cycle(self) -> Generator:
        if not self.active:
            return
        now = self.job.hr.read()
        cycle_time = to_s(now - self._cycle_t0)
        t0 = to_s(self._cycle_t0)
        self.cycle_times.append(cycle_time)
        self.cycle_stamps.append((t0, to_s(now)))
        if self.obs is not None:
            self.obs.complete(
                "cycle", t0, dur=cycle_time, cat="cycle",
                pid=self.node_id, tid=self.world_rank,
                cycle=self.cycle, mode=self.mode,
            )
        if not self.job.adaptive:
            return
        if self.mode == self.MODE_GRACE:
            self._grace_count += 1
            if self._grace_count >= self.spec.grace_period:
                yield from self._redistribute()
        elif self.mode == self.MODE_POST:
            self._post_count += 1
            self._post_times.append(cycle_time)
            if self._post_count >= self.spec.post_redist_period:
                yield from self._consider_drop()

    # ------------------------------------------------------------------
    # computation (instrumented during the grace period)
    # ------------------------------------------------------------------
    def compute(
        self,
        phase_id: int,
        work_of_rows: Callable[[int, int], np.ndarray],
        exec_rows: Optional[Callable[[int, int], None]] = None,
        rows: Optional[tuple[int, int]] = None,
    ) -> Generator:
        """Run this rank's share of phase ``phase_id``.

        ``work_of_rows(s, e)`` returns per-row work units for rows
        ``s..e`` inclusive (the application's cost surrogate — on a
        real system this is simply the rows' execution).  ``exec_rows``
        optionally performs the real numpy computation: it is called
        exactly once per ``compute()`` call, as ``exec_rows(s, e)``
        with the call's whole range, after the simulated charge (real
        math takes no simulated time), so it can work a slab at a time.

        ``rows`` restricts the call to a sub-range of the owned rows —
        applications that overlap communication with computation run
        the interior first, then the boundary rows after their ghosts
        arrive.  A phase's sub-range calls may be split arbitrarily as
        long as each cycle covers every owned row exactly once.

        During the grace period the rows are charged one at a time with
        timer reads around each, exactly how Dyn-MPI measures unloaded
        iteration times (:func:`~.timing.timed_rows`: one CPU job for
        the whole range); otherwise the whole block is one charge.
        """
        if phase_id not in self.phases:
            raise RegistrationError(f"unknown phase {phase_id}")
        if not self.active:
            return
        os_, oe = self.my_bounds()
        if oe < os_:
            return
        if rows is None:
            s, e = os_, oe
        else:
            s, e = rows
            if e < s:
                return
            if s < os_ or e > oe:
                raise RegistrationError(
                    f"compute rows ({s},{e}) outside owned bounds ({os_},{oe})"
                )
        works = np.asarray(work_of_rows(s, e), dtype=float)
        if works.shape != (e - s + 1,):
            raise RegistrationError(
                f"work_of_rows returned shape {works.shape}, expected {(e - s + 1,)}"
            )
        obs = self.obs
        n_rows = e - s + 1
        t0 = obs.now() if obs is not None else 0.0
        if self.mode == self.MODE_GRACE and self.job.adaptive:
            key = (phase_id, s, e)  # the key is the sample's row range
            samples = self._grace.get(key)
            if samples is None:
                samples = self._grace[key] = GraceSamples(range(s, e + 1))
            hr_row, proc_row = yield from timed_rows(
                self.job.hr, self.proc_clock, works)
            samples.add_cycle(hr_row, proc_row)
        else:
            yield Compute(float(works.sum()))
        if exec_rows is not None:
            exec_rows(s, e)
        if obs is not None:
            obs.complete(
                "compute", t0, cat="compute",
                pid=self.node_id, tid=self.world_rank,
                phase=phase_id, mode=self.mode, rows=n_rows,
            )

    # ------------------------------------------------------------------
    # adaptation internals
    # ------------------------------------------------------------------
    def _shared(self, key: tuple, derive: Callable[[], Any]):
        """The value every member of this cycle shares under ``key``
        (see ``DynMPIJob._epochs``): the first to ask derives it, the
        others take that object.  Sharing is safe because IntervalSet
        is immutable, a Transition's arrays are read-only and callers
        only read the rest."""
        epoch = self.job._epochs.setdefault(self.cycle, {})
        hit = epoch.get(key)
        if hit is None:
            hit = epoch[key] = derive()
        return hit

    def _decide(self, inputs: tuple, plan: Callable[[View], Any]):
        """One decision per adaptation per job.  Every active rank
        reaches it with the same replicated view and the same gathered
        data (Section 4.4), so the first to arrive runs ``plan(view)``
        and the others install its result — the same Transition object a
        rejoining rank receives in its token.  ``inputs`` names the
        planner and everything it reads besides the view, by value: a
        replica whose view or gathered data diverged misses and plans
        its own, and the sanitizer's lockstep check still names it."""
        view = self._view()
        return self._shared((view.fingerprint(),) + inputs, lambda: plan(view))

    def _move(self, old_bounds: Optional[tuple], new_bounds: tuple) -> tuple:
        """``(needed map, send plan)`` for moving ``self.arrays`` from
        ``old_bounds`` ownership to what ``new_bounds`` needs; the plan
        is None for the initial placement (``old_bounds`` None).  One
        per row move per job, keyed with the registration: a divergent
        replica or registration misses and derives its own.  With the
        sanitizer on, deriving a move verifies it first."""
        def derive() -> tuple:
            array_rows = dict(self._registration[1])
            needed = needed_map(self.phases, new_bounds, array_rows)
            if old_bounds is None:
                return needed, None
            if self.job.cluster.sanitizer is not None:
                # dynsan self-check: the Section 4.4 invariants of the
                # move, before any row moves (raises PlanCheckError)
                from ..analysis.plancheck import verify_transition
                verify_transition(old_bounds, new_bounds, self.phases,
                                  array_rows)
            return needed, plan_edges(old_bounds, needed, list(self.arrays))

        return self._shared(("move", old_bounds, new_bounds, self._registration),
                            derive)

    def _patterns(self) -> list[PhasePattern]:
        return [p.pattern for p in self.phases.values()]

    def _estimate_my_rows(self) -> tuple[list[int], np.ndarray]:
        """Combine per-(phase, sub-range) grace samples into per-row
        unloaded times (seconds per iteration, summed over phases)."""
        s, e = self.my_bounds()
        rows = list(range(s, e + 1)) if e >= s else []
        total = np.zeros(len(rows))
        source = "none"
        for _key, samples in self._grace.items():
            est, source = estimate_unloaded_times(
                samples, self.spec.hrtimer_threshold
            )
            for g, value in zip(samples.rows, est):
                if not (s <= g <= e):
                    raise SimulationError(
                        "grace samples out of sync with loop bounds"
                    )
                total[g - s] += value
        self.last_estimate_source = source
        return rows, total

    def _array_rows(self) -> dict[str, int]:
        return {name: arr.n_rows for name, arr in self.arrays.items()}

    def _redistribute(self) -> Generator:
        t0 = self.job.hr.read()
        rows, est = self._estimate_my_rows()
        gathered = yield from coll.allgather_dissemination(
            self.ep, self.active_group, (rows, est)
        )
        patterns = self._patterns()
        source = self.last_estimate_source
        # the gathered estimates by value: every row index, then every
        # estimate, in gather order (the order the planner writes them)
        all_rows = np.fromiter(chain.from_iterable(r for r, _ in gathered),
                               dtype=np.int64)
        all_ests = np.concatenate([e for _, e in gathered])
        plan = self._decide(
            ("rebalance", self.loop_size, tuple(patterns),
             all_rows.tobytes(), all_ests.tobytes()),
            lambda view: plan_rebalance(
                view, self.loop_size, gathered,
                ref_speed=self.job.ref_speed, patterns=patterns,
                comm_model=self.job.comm_model, source=source,
            ),
        )
        if self.world_rank == plan.recorder and plan.detail["source"] != source:
            # the timer a rank measured with is its own note on the
            # event, not an input of the decision (a rank that owns no
            # rows has "none"): the recorder records its own
            plan = plan._replace(detail={**plan.detail, "source": source})
        yield from self._apply(plan, t0)

    def _consider_drop(self) -> Generator:
        avg = float(np.mean(self._post_times)) if self._post_times else 0.0
        avgs = yield from coll.allgather_dissemination(
            self.ep, self.active_group, avg
        )
        self.mode = self.MODE_NORMAL
        patterns = self._patterns()

        def derive(view: View) -> tuple:
            decision = evaluate_drop(
                view.loads, [self.job.ref_speed] * len(view.world),
                float(view.row_weights.sum()) * self.job.ref_speed,
                patterns, self.job.comm_model, self.loop_size, max(avgs),
                self.spec,
            )
            plan = (plan_drop(view, self.loop_size, decision, self.spec)
                    if decision.drop else None)
            return decision, plan

        decision, plan = self._decide(
            ("drop", self.loop_size, tuple(patterns),
             np.asarray(avgs, dtype=float).tobytes()),
            derive,
        )
        if self.obs is not None and self.rel_rank() == 0:
            self.obs.instant(
                "adapt.drop_decision", cat="adapt", pid=JOB_PID, tid=0,
                cycle=self.cycle,
                predicted=decision.predicted_time,
                measured=decision.measured_time,
                drop=decision.drop,
            )
        if plan is not None:
            yield from self._apply(plan)

    def _apply(self, plan: Transition, t0: Optional[int] = None) -> Generator:
        """Execute one planned change of the replicated view: move the
        rows over the exchange group, install ``plan.after``, record the
        event.  Every member runs it identically, a rejoining rank
        included.  ``t0``: when the adaptation began (hrtimer ns), if timed."""
        obs = self.obs
        if plan.exchange_world is not None:
            ts = obs.now() if obs is not None else 0.0
            needed, sends = self._move(plan.old_ownership, plan.new_bounds)
            if obs is not None:
                # plan derivation is pure computation (no simulated time):
                # a zero-duration marker carrying the plan's span count
                obs.complete(
                    "redist.plan", ts, dur=0.0, cat="redist",
                    pid=self.node_id, tid=self.world_rank, cycle=self.cycle,
                    spans=sum(len(iv.spans)
                              for per in needed for iv in per.values()),
                )
            for dead, holder in plan.replays:
                if holder == self.world_rank:
                    # stand in for the dead rank's send-out: replay its
                    # rows from the replica into this rank's own arrays
                    ckpt = self._ckpt_store.get(dead)
                    if ckpt is None:
                        raise CheckpointLostError(
                            f"rank {holder} elected holder for dead rank "
                            f"{dead} but holds no replica"
                        )
                    ckpt.restore(self.arrays)
            report = yield from redistribute(
                self.ep, self.job.group_for(plan.exchange_world),
                plan.old_ownership, plan.new_bounds, self.arrays, needed,
                self.job.mem_model,
                memory_bytes=self.job.cluster.spec.node.memory_bytes,
                plan=sends,
            )
            if obs is not None:
                obs.complete(
                    "redist.apply", ts, cat="redist",
                    pid=self.node_id, tid=self.world_rank,
                    cycle=self.cycle,
                    rows_sent=report.rows_sent,
                    rows_received=report.rows_received,
                    bytes_sent=report.bytes_sent,
                )
            # ownership moved: measurements taken under the old bounds
            # are void, and stored replicas must match the new ones
            self._grace = {}
            self._grace_count = 0
            self._post_count = 0
            self._post_times = []
            self._ckpt_due = True
            for dead, _holder in plan.replays:
                self._ckpt_store.discard(dead)
        self._install(plan.after)
        if self.world_rank == plan.recorder:
            now = self.job.hr.read()
            start = now if t0 is None else t0
            duration = to_s(now - start)
            self.job.events.append(RuntimeEvent(
                plan.kind, self.cycle, to_s(now), duration, plan.detail))
            if obs is not None:
                obs.complete(
                    f"adapt.{plan.kind}", to_s(start), dur=duration,
                    cat="adapt", pid=JOB_PID, tid=0,
                    cycle=self.cycle, **plan.detail,
                )

    def _install(self, view: View) -> None:
        """Commit ``view``: the only writer of the replicated view once
        ``commit()`` has set the initial one."""
        self.active = self.world_rank in view.world
        self._token_root = view.world[0]  # whom a parked rank reports to
        self.active_group = self.job.group_for(view.world)
        self.bounds = view.bounds
        self._nn = self._owned_neighbors()
        self.loads = view.loads
        self.monitor.rebase(view.loads)
        self.row_weights = view.row_weights
        self.n_redistributions = view.n_redistributions
        self.mode = view.mode
        self.dead_world = set(view.dead_world)
        for w in view.world + view.dead_world:
            self._removed_loads.pop(w, None)  # no longer parked
