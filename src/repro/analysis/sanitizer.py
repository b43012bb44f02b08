"""Runtime MPI sanitizer (the MUST-style layer of dynsan).

When enabled, every :class:`~repro.simcluster.cluster.Cluster` owns a
:class:`CommSanitizer` and the MPI layer reports message life-cycle
events to it:

* every injected message (eager or rendezvous) until a receive
  consumes it;
* every posted receive until a message matches it;
* every rank's blocking state (what it waits on, and on whom);
* every collective entry (group, tag, algorithm name, root).

From these the sanitizer provides two services:

**Fail-fast deadlock detection.**  Each blocked rank contributes at
most one *wait-for* edge: a receiver with an explicit source waits on
that source (unless a matching message is already in flight), and a
rendezvous sender waits on its destination (unless the destination has
already posted a matching receive).  Whenever a rank blocks — reported
by the comm layer, and by the kernel, whose ``Simulator.on_block`` is
:meth:`CommSanitizer.check_deadlock` — the sanitizer walks the edge
chain; a cycle raises :class:`~repro.errors.CommDeadlockError` naming
every rank in the cycle and its pending operation.  This converts the classic
head-to-head rendezvous send (and recv/recv cycles) into an immediate
diagnostic instead of a drained-heap :class:`DeadlockError` — or, on a
cluster with periodic daemons, instead of an unbounded hang.

**Finalize-time accounting.**  :meth:`CommSanitizer.finalize` reports
messages that were sent but never received, receives that were posted
but never matched, collectives entered by only part of their group,
and ANY_SOURCE receives that raced with multiple in-flight candidates
(a warning — wildcard gathers are legitimate, but the match order is
implementation-defined in real MPI).

**One-sided (RMA) epoch checking.**  The :mod:`repro.mpi.rma` layer
reports lock/unlock/op events; the sanitizer enforces passive-target
epoch discipline:

=======  ==========================================================
code     meaning
=======  ==========================================================
DYN1111  unpaired ``unlock`` — no matching ``lock`` epoch is open on
         that (window, target); also raised at finalize for epochs
         opened and never closed
DYN1112  RMA access (put/get/accumulate/fetch_and_op/
         compare_and_swap) outside any open epoch on its target
DYN1113  conflicting lock acquisition — an origin requested a second
         lock on a (window, target) it already holds or is waiting
         on (nested/double locking self-deadlocks in real MPI)
=======  ==========================================================

Enabling: ``ClusterSpec(sanitize=True)`` or ``DYNMPI_SANITIZE=1`` in
the environment (``sanitize=False`` wins over the variable; the
default ``None`` defers to it).  The sanitizer is strictly opt-in and
adds zero work when off — benchmarks guard this.

This module deliberately imports nothing from :mod:`repro.mpi` or
:mod:`repro.simcluster` (the cluster imports *us*), so the wildcard
constants are mirrored here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Optional

from ..errors import CommDeadlockError, SanitizerError

__all__ = ["CommSanitizer", "SanitizerReport", "sanitizer_enabled"]

#: mirror of repro.mpi.status.ANY_SOURCE / ANY_TAG (import cycle)
_ANY = -1


def sanitizer_enabled(spec: Any) -> bool:
    """Resolve the opt-in: explicit ``spec.sanitize`` wins, the
    ``DYNMPI_SANITIZE`` environment variable fills in for ``None``."""
    explicit = getattr(spec, "sanitize", None)
    if explicit is not None:
        return bool(explicit)
    return os.environ.get("DYNMPI_SANITIZE", "0") not in ("", "0")


def _tag_matches(wanted: int, actual: int) -> bool:
    return wanted in (_ANY, actual)


@dataclass
class _MsgRec:
    """An injected message not yet consumed by a receive."""

    src: int
    dst: int
    tag: int
    nbytes: int
    rendezvous: bool

    def describe(self) -> str:
        kind = "rendezvous" if self.rendezvous else "eager"
        return f"{kind} send {self.src}->{self.dst} tag={self.tag} ({self.nbytes}B)"


@dataclass
class _RecvRec:
    """A posted receive not yet matched."""

    rank: int
    source: int
    tag: int

    def describe(self) -> str:
        src = "ANY_SOURCE" if self.source == _ANY else str(self.source)
        tag = "ANY_TAG" if self.tag == _ANY else str(self.tag)
        return f"recv posted by {self.rank} from {src} tag={tag}"


@dataclass
class _BlockRec:
    """What a blocked rank is waiting on."""

    kind: str            # "recv" | "recv-poll" | "send-rdv" | "recv-data"
    peer: int            # source (recv) or destination (send); may be _ANY
    tag: int
    env_key: Optional[tuple] = None  # (cid, seq) of a send-rdv's envelope

    def describe(self) -> str:
        if self.kind in ("recv", "recv-poll"):
            src = "ANY_SOURCE" if self.peer == _ANY else f"rank {self.peer}"
            return f"blocked in recv from {src} (tag={self.tag})"
        if self.kind == "send-rdv":
            return f"blocked in rendezvous send to rank {self.peer} (tag={self.tag})"
        return f"blocked waiting for rendezvous data from rank {self.peer}"


@dataclass
class _CollRec:
    """First-entrant record for one collective (group id, tag)."""

    name: str
    root: Optional[int]
    group_size: int
    entered: set = field(default_factory=set)


@dataclass
class SanitizerReport:
    """Outcome of :meth:`CommSanitizer.finalize`."""

    errors: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.errors and not self.warnings

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        lines = [f"E: {e}" for e in self.errors] + [f"W: {w}" for w in self.warnings]
        return "\n".join(lines) or "sanitizer: clean"


class CommSanitizer:
    """Tracks in-flight communication state for one cluster.

    All hooks are O(pending ops) at worst and touch nothing global;
    the comm layer only calls them when the cluster was built with the
    sanitizer enabled.
    """

    def __init__(self) -> None:
        self._msgs: dict[tuple, _MsgRec] = {}      # (comm cid, seq) -> record
        self._recvs: dict[object, _RecvRec] = {}   # pending receive -> record
        self._blocked: dict[int, _BlockRec] = {}   # rank -> record
        self._colls: dict[tuple, _CollRec] = {}    # (group gid, tag) -> record
        #: (origin, window id, target) -> "waiting" | "held" RMA epochs
        self._rma: dict[tuple[int, int, int], str] = {}
        #: window id -> window name, for diagnostics
        self._rma_names: dict[int, str] = {}
        self._dead: set[int] = set()               # ranks whose process died
        self.warnings: list[str] = []
        self.n_sends = 0
        self.n_matches = 0
        self._n_comms = 0

    def register_comm(self) -> int:
        """A token for a new communicator on this cluster: each numbers
        its envelopes from 0, so messages are keyed ``(token, seq)``."""
        self._n_comms += 1
        return self._n_comms

    # ------------------------------------------------------------------
    # failed ranks (called from SimComm.mark_rank_dead)
    # ------------------------------------------------------------------
    def mark_dead(self, rank: int) -> None:
        """A rank's process died (injected fault).  Its in-flight state
        stops counting as a correctness violation: finalize downgrades
        operations involving it to warnings, and the wait-for graph no
        longer treats it as a live peer (poisoning, not progress,
        resolves waits on a dead rank)."""
        self._dead.add(rank)
        self._blocked.pop(rank, None)

    # ------------------------------------------------------------------
    # message life cycle (called from repro.mpi.comm)
    # ------------------------------------------------------------------
    def on_send(self, env, cid: int) -> None:
        self.n_sends += 1
        self._msgs[(cid, env.seq)] = _MsgRec(
            env.src, env.dst, env.tag, env.nbytes, env.rendezvous
        )

    def on_recv_posted(self, pending, rank: int, source: int, tag: int) -> None:
        self._recvs[pending] = _RecvRec(rank, source, tag)

    def on_match(
        self,
        env,
        cid: int,
        rank: int,
        source: int,
        tag: int,
        pending=None,
    ) -> None:
        """A receive consumed ``env`` of communicator ``cid`` at ``rank``
        (query ``source``/``tag``), through the posted receive
        ``pending`` if there was one."""
        self.n_matches += 1
        self._msgs.pop((cid, env.seq), None)
        if pending is not None:
            self._recvs.pop(pending, None)
        # The match satisfies the rank's recv wait even though the kernel
        # has not resumed it yet; keeping the block record past this point
        # would let the chain walk see a phantom edge (the suppressing
        # message was just popped above).
        blk = self._blocked.get(rank)
        if blk is not None and blk.kind in ("recv", "recv-poll"):
            del self._blocked[rank]
        if source == _ANY:
            rivals = sorted({
                m.src for m in self._msgs.values()
                if m.dst == rank and m.src != env.src and _tag_matches(tag, m.tag)
            })
            if rivals:
                self.warnings.append(
                    f"ANY_SOURCE race: recv at rank {rank} (tag="
                    f"{'ANY_TAG' if tag == _ANY else tag}) matched source "
                    f"{env.src} while sources {rivals} also had matching "
                    f"messages pending"
                )

    # ------------------------------------------------------------------
    # blocking state + wait-for-graph deadlock detection
    # ------------------------------------------------------------------
    def on_block(
        self, rank: int, kind: str, peer: int, tag: int,
        env_key: Optional[tuple] = None,
    ) -> None:
        self._blocked[rank] = _BlockRec(kind, peer, tag, env_key)
        self.check_deadlock()

    def on_unblock(self, rank: int) -> None:
        self._blocked.pop(rank, None)

    def _wait_edge(self, rank: int, b: _BlockRec) -> Optional[int]:
        """The rank this blocked rank is definitely waiting on, or None.

        Edges are conservative: any already-pending message (or posted
        receive, for a rendezvous sender) that could resolve the wait
        suppresses the edge, so a reported cycle is a true deadlock.
        """
        if b.peer in self._dead:
            return None  # dead peers resolve by poisoning, not progress
        if b.kind in ("recv", "recv-poll"):
            if b.peer == _ANY:
                return None
            for m in self._msgs.values():
                if m.src == b.peer and m.dst == rank and _tag_matches(b.tag, m.tag):
                    return None
            return b.peer
        if b.kind == "send-rdv":
            if b.env_key not in self._msgs:
                return None  # RTS consumed: the transfer is in progress
            for r in self._recvs.values():
                if (
                    r.rank == b.peer
                    and r.source in (_ANY, rank)
                    and r.tag in (_ANY, b.tag)
                ):
                    return None
            return b.peer
        return None  # recv-data: pure network events, always progresses

    def check_deadlock(self) -> None:
        """Walk wait-for chains from every blocked rank; raise
        :class:`CommDeadlockError` on the first cycle found."""
        edges: dict[int, int] = {}
        for rank, b in self._blocked.items():
            peer = self._wait_edge(rank, b)
            if peer is not None and peer in self._blocked:
                edges[rank] = peer
        for start in edges:
            path: list[int] = []
            seen: set[int] = set()
            cur: Optional[int] = start
            while cur is not None and cur in edges and cur not in seen:
                seen.add(cur)
                path.append(cur)
                cur = edges[cur]
            if cur is not None and cur in seen:
                cycle = path[path.index(cur):]
                ops = {r: self._blocked[r].describe() for r in cycle}
                raise CommDeadlockError(cycle, ops)

    # ------------------------------------------------------------------
    # one-sided RMA epochs (called from repro.mpi.rma)
    # ------------------------------------------------------------------
    def on_rma_lock_request(self, origin: int, wid: int, name: str,
                            target: int, shared: bool) -> None:
        self._rma_names[wid] = name
        key = (origin, wid, target)
        state = self._rma.get(key)
        if state is not None:
            mode = "holds" if state == "held" else "is already waiting for"
            raise SanitizerError(
                f"DYN1113: conflicting lock acquisition on window "
                f"'{name}' target {target}: origin {origin} requested a "
                f"{'shared' if shared else 'exclusive'} lock it {mode} — "
                f"nested locking of the same (window, target) "
                f"self-deadlocks in real MPI"
            )
        self._rma[key] = "waiting"

    def on_rma_lock_granted(self, origin: int, wid: int, name: str,
                            target: int) -> None:
        self._rma[(origin, wid, target)] = "held"

    def on_rma_unlock(self, origin: int, wid: int, name: str,
                      target: int) -> None:
        key = (origin, wid, target)
        if self._rma.get(key) != "held":
            raise SanitizerError(
                f"DYN1111: unpaired unlock on window '{name}' target "
                f"{target}: origin {origin} closed an epoch it never "
                f"opened"
            )
        del self._rma[key]

    def on_rma_op(self, origin: int, wid: int, name: str, target: int,
                  op: str) -> None:
        if self._rma.get((origin, wid, target)) != "held":
            raise SanitizerError(
                f"DYN1112: RMA access outside an epoch: origin {origin} "
                f"called {op} on window '{name}' target {target} without "
                f"holding a lock on it — in real MPI the access races "
                f"with the target's exposure state"
            )

    # ------------------------------------------------------------------
    # collectives (called from repro.mpi.collectives)
    # ------------------------------------------------------------------
    def on_collective(
        self,
        rank: int,
        gid: int,
        tag: int,
        name: str,
        root: Optional[int],
        group_size: int,
    ) -> None:
        rec = self._colls.get((gid, tag))
        if rec is None:
            self._colls[(gid, tag)] = _CollRec(name, root, group_size, {rank})
            return
        if rec.name != name or rec.root != root:
            raise SanitizerError(
                f"collective mismatch on group {gid} tag {tag}: rank {rank} "
                f"entered {name}(root={root}) but rank(s) "
                f"{sorted(rec.entered)} entered {rec.name}(root={rec.root}) "
                f"— SPMD ordering violation"
            )
        rec.entered.add(rank)

    # ------------------------------------------------------------------
    # finalize
    # ------------------------------------------------------------------
    def finalize(self, *, raise_on_error: bool = True,
                 advisory_tags: tuple = ()) -> SanitizerReport:
        """Report leftover state after a run.  With ``raise_on_error``
        (the default), unmatched sends/recvs raise
        :class:`SanitizerError`; warnings never raise.  Unread sends
        under ``advisory_tags`` (latest-value-wins reports the receiver
        only polls for) are warnings."""
        report = SanitizerReport(warnings=list(self.warnings))
        for m in self._msgs.values():
            if m.src in self._dead or m.dst in self._dead:
                report.warnings.append(
                    f"send abandoned by rank failure: {m.describe()}"
                )
            elif m.tag in advisory_tags:
                report.warnings.append(f"advisory send unread: {m.describe()}")
            else:
                report.errors.append(f"unmatched send: {m.describe()}")
        for r in self._recvs.values():
            if r.rank in self._dead or r.source in self._dead:
                report.warnings.append(
                    f"receive abandoned by rank failure: {r.describe()}"
                )
            else:
                report.errors.append(f"unmatched receive: {r.describe()}")
        for (origin, wid, target), state in sorted(self._rma.items()):
            name = self._rma_names.get(wid, f"#{wid}")
            desc = (
                f"DYN1111: RMA epoch never closed: origin {origin} "
                f"{'held' if state == 'held' else 'still waited for'} a "
                f"lock on window '{name}' target {target} at finalize"
            )
            if origin in self._dead or target in self._dead:
                report.warnings.append(
                    f"RMA epoch abandoned by rank failure: origin "
                    f"{origin} on window '{name}' target {target}"
                )
            else:
                report.errors.append(desc)
        for (gid, tag), rec in sorted(self._colls.items()):
            if 0 < len(rec.entered) < rec.group_size:
                report.warnings.append(
                    f"incomplete collective {rec.name} (group {gid}, tag "
                    f"{tag}): only ranks {sorted(rec.entered)} of "
                    f"{rec.group_size} entered"
                )
        if report.errors and raise_on_error:
            raise SanitizerError(
                "sanitizer finalize found "
                f"{len(report.errors)} error(s):\n  "
                + "\n  ".join(report.errors)
            )
        return report
