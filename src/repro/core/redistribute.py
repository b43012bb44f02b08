"""Data redistribution (paper Section 4.4).

Effecting a new distribution requires each node to (1) determine data
ownership, (2) deallocate memory no longer needed, (3) allocate memory
for newly owned data, (4) update pointers for data that stays, and
(5) schedule communication for data that moves.  The DRSDs determine
exactly which rows a node must hold under the new loop bounds — owned
rows plus the ghost rows its read accesses reach (the Fortran-D
technique).

Because every rank derives the same plan from the same inputs (old
distribution, new distribution, DRSDs), no negotiation round is
needed: rank ``src`` sends to rank ``dst`` exactly the rows ``src``
owned before that ``dst`` needs now and did not own before.  That rule
is :func:`plan_sends`; :func:`redistribute` executes its output and
nothing else — one packed message per edge of the plan (the "entire
extended rows with a single message" property of the projection
layout) through one sparse ``neighbor_alltoallv``, and no message
between ranks the plan does not connect.  A block redistribution
touches a handful of neighbouring owners per rank, so its cost follows
the data that moves, not the size of the group.

Memory-management cost (allocations, frees, copies, pointer rewrites,
and paging if the footprint is large) is charged to the CPU through
the :class:`~repro.dmem.allocator.MemCostModel`, so redistribution
time in experiments reflects the allocation scheme.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Generator, Mapping, Optional, Sequence

from ..dmem import MemCostModel
from ..errors import RedistributionError
from ..mpi import Endpoint, Group
from ..mpi.collectives import neighbor_alltoallv
from ..simcluster import Compute
from .intervals import IntervalSet
from .phase import Phase

__all__ = [
    "RedistReport",
    "needed_map",
    "owned_intervals",
    "plan_edges",
    "plan_sends",
    "redistribute",
]

Bounds = Sequence[Optional[tuple[int, int]]]


@dataclass
class RedistReport:
    rows_sent: int = 0
    rows_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    mem_work: float = 0.0
    per_array_sent: dict = field(default_factory=dict)


def needed_map(
    phases: Mapping[int, Phase],
    bounds: Bounds,
    array_rows: Mapping[str, int],
) -> list[dict[str, IntervalSet]]:
    """needed[rel][array] = :class:`IntervalSet` of global rows rank
    ``rel`` must hold under loop ``bounds`` (owned + DRSD ghosts), for
    every rank.

    Each unit-stride access contributes one span, so building the map
    is O(ranks · arrays · accesses) — independent of the row count.
    The result compares equal to the per-row reference
    (``needed_map_sets`` in ``tests/oracles/row_sets.py``) row for row.
    """
    n = len(bounds)
    spans: list[dict[str, list]] = [
        {name: [] for name in array_rows} for _ in range(n)
    ]
    for rel in range(n):
        b = bounds[rel]
        if b is None:
            continue
        s, e = b
        for phase in phases.values():
            for acc in phase.accesses:
                n_rows = array_rows.get(acc.array)
                if n_rows is None:
                    raise RedistributionError(
                        f"phase {phase.phase_id} accesses unregistered array "
                        f"{acc.array!r}"
                    )
                spans[rel][acc.array].extend(
                    acc.needed_intervals(s, e, n_rows).spans
                )
    return [
        {name: IntervalSet(sp) for name, sp in per_rel.items()}
        for per_rel in spans
    ]


def owned_intervals(bounds: Bounds, rel: int) -> IntervalSet:
    """Rows rank ``rel`` owns under ``bounds`` — a single span for a
    ``(lo, hi)`` block, an explicit (possibly non-contiguous) set when
    crash recovery hands the checkpoint holder its own rows plus the
    adopted rows of the rank it stands in for."""
    return IntervalSet.from_bounds(bounds[rel])


def plan_sends(
    old_bounds: Bounds,
    needed: Sequence[Mapping[str, IntervalSet]],
    array_names: Sequence[str],
) -> dict:
    """The full send rule for a group at once:
    ``sends[(src, dst)][array]`` = :class:`IntervalSet` of rows ``src``
    packs for ``dst`` (rows ``dst`` needs now, did not own before, and
    ``src`` did own before).  Empty transfers are omitted.

    Rather than testing every ``(src, dst)`` pair, each destination's
    *missing* spans are bisected into a sorted index of old-ownership
    spans, so only the senders that actually overlap are ever touched —
    O(ranks · arrays · (log ranks + transfers)).  Row-for-row equal to
    ``plan_sends_sets`` in ``tests/oracles/row_sets.py``.

    Old ownership must partition the rows (disjoint across ranks),
    which the runtime guarantees: crash recovery hands a dead rank's
    rows to its checkpoint buddy and leaves the dead rank's entry
    ``None``, never duplicating an owner (the Section 4.4 unique-old-
    owner invariant plancheck enforces).
    """
    n = len(old_bounds)
    owned = [owned_intervals(old_bounds, r) for r in range(n)]
    index = sorted(
        (lo, hi, src) for src in range(n) for lo, hi in owned[src].spans
    )
    starts = [lo for lo, _, _ in index]

    acc: dict[tuple[int, int, str], list] = {}
    for dst in range(n):
        for name in array_names:
            missing = needed[dst][name] - owned[dst]
            for lo, hi in missing.spans:
                i = max(bisect_right(starts, lo) - 1, 0)
                while i < len(index) and index[i][0] <= hi:
                    slo, shi, src = index[i]
                    i += 1
                    if shi < lo or src == dst:
                        continue
                    acc.setdefault((src, dst, name), []).append(
                        (max(lo, slo), min(hi, shi))
                    )

    sends: dict = {}
    for (src, dst, name), spans in acc.items():
        sends.setdefault((src, dst), {})[name] = IntervalSet(spans)
    return sends


def plan_edges(
    old_bounds: Bounds,
    needed: Sequence[Mapping[str, IntervalSet]],
    array_names: Sequence[str],
) -> tuple[dict, dict]:
    """:func:`plan_sends` indexed for the ranks that execute it:
    ``(outgoing, incoming)`` with ``outgoing[src] = {dst: {array:
    rows}}`` and ``incoming[dst] = [src, ...]``.  A rank with no edges
    on a side has no key there."""
    outgoing: dict[int, dict] = {}
    incoming: dict[int, list[int]] = {}
    for (src, dst), entry in plan_sends(old_bounds, needed,
                                        array_names).items():
        outgoing.setdefault(src, {})[dst] = entry
        incoming.setdefault(dst, []).append(src)
    return outgoing, incoming


def redistribute(
    ep: Endpoint,
    group: Group,
    old_bounds: Bounds,
    new_bounds: Bounds,
    arrays: Mapping[str, object],
    needed: Sequence[Mapping[str, IntervalSet]],
    mem_model: MemCostModel,
    memory_bytes: int = 0,
    plan: Optional[tuple[dict, dict]] = None,
) -> Generator:
    """Move array rows from ``old_bounds`` ownership to satisfy
    ``needed`` (derived from ``new_bounds``); a generator to drive with
    ``yield from``.  Returns a :class:`RedistReport`.

    ``plan`` is ``plan_edges(old_bounds, needed, list(arrays))``; every
    rank derives the same one, so a caller that runs many ranks passes
    a shared copy instead of deriving it once per rank.
    """
    me = group.rel(ep.rank)
    n = group.size
    if len(old_bounds) != n or len(new_bounds) != n or len(needed) != n:
        raise RedistributionError("bounds/needed must cover the whole group")
    if plan is None:
        plan = plan_edges(old_bounds, needed, list(arrays))
    outgoing, incoming = plan

    report = RedistReport()
    obs = ep.comm.obs
    t0 = obs.now() if obs is not None else 0.0

    # -- one packed block per outgoing edge of the plan -----------------
    sends: dict[int, tuple[dict, int]] = {}
    for dst, edge in outgoing.get(me, {}).items():
        entry = {}
        total = 64
        for name, rows in edge.items():
            payload, nb = arrays[name].pack(rows)
            entry[name] = (rows, payload)
            total += nb
            report.rows_sent += len(rows)
            report.per_array_sent[name] = report.per_array_sent.get(name, 0) + len(rows)
        sends[dst] = (entry, total)
        report.bytes_sent += total

    snapshots = {name: arr.stats.snapshot() for name, arr in arrays.items()}

    if obs is not None:
        # packing spends no simulated time (a zero-duration span), but
        # the per-edge byte counters are the data the cost report and
        # trace diff lean on
        obs.complete(
            "redist.pack", t0, cat="redist", pid=ep.node_id, tid=ep.rank,
            rows=report.rows_sent, nbytes=report.bytes_sent,
        )
        reg = obs.rank_registry(ep.rank)
        for dst, (_entry, total) in sends.items():
            reg.count("redist.edge_bytes", total,
                      src=ep.rank, dst=group.world(dst))
        reg.count("redist.rows_sent", report.rows_sent)
        reg.count("redist.bytes_sent", report.bytes_sent)

    # -- the single exchange: this rank's edges, nobody else ------------
    received = yield from neighbor_alltoallv(
        ep, group, sends, incoming.get(me, ())
    )
    t1 = obs.now() if obs is not None else 0.0

    # -- drop stale rows, install received rows, allocate the rest ------
    for name, arr in arrays.items():
        arr.retarget(needed[me][name])
    for src in sorted(received):
        entry, nb = received[src]
        report.bytes_received += nb
        for name, (rows, payload) in entry.items():
            arrays[name].unpack(rows, payload)
            report.rows_received += len(rows)
    for name, arr in arrays.items():
        arr.hold(needed[me][name])  # zero-fill anything nobody sent

    # -- charge the memory-management CPU cost --------------------------
    mem_work = 0.0
    for name, arr in arrays.items():
        delta = arr.stats.delta(snapshots[name])
        mem_work += mem_model.work(delta, memory_bytes)
    report.mem_work = mem_work
    if mem_work > 0:
        yield Compute(mem_work)
    if obs is not None:
        obs.complete(
            "redist.unpack", t1, cat="redist", pid=ep.node_id, tid=ep.rank,
            rows=report.rows_received, mem_work=report.mem_work,
        )
        obs.rank_registry(ep.rank).count(
            "redist.rows_received", report.rows_received
        )
    return report
