"""Static redistribution-plan verifier (the plancheck layer of dynsan).

Dyn-MPI's redistribution (paper Section 4.4) relies on every rank
deriving the *same* plan from the same inputs — old distribution, new
distribution, DRSDs — with no negotiation round.  A derivation bug
therefore corrupts data silently: ``arr.hold`` zero-fills any row
nobody sent, so a lost row becomes wrong numerics a thousand cycles
later, not a crash now.  This module makes the plan explicit and
checks the Section 4.4 invariants *before* any message moves:

* **matched transfers** — every row a rank must newly hold arrives
  from exactly one sender, and that sender is the row's unique *old
  owner* (ghost copies are stale and must never be the source);
* **row-multiset conservation** — no lost rows (needed but never
  sent), no duplicated rows (two senders for one row), no phantom rows
  (sent but not needed by the destination);
* **ghost coverage** — the needed sets cover every row each DRSD read
  access touches under the new loop bounds;
* **removal semantics** — a participant with no new bounds gets
  send-out but no send-in.

:func:`build_plan` calls the send rule
:func:`repro.core.redistribute.redistribute` executes
(:func:`~repro.core.redistribute.plan_sends` over the same
:func:`~repro.core.redistribute.needed_map`), so verifying a built
plan checks the plan that moves rows; :func:`verify_plan` also
accepts an externally supplied (possibly corrupt) plan, which is how
the tests seed dropped/duplicated/phantom rows.

Exposed on the command line as ``python -m repro.analysis plan
spec.json`` (see :mod:`repro.analysis.__main__` for the spec format).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..core.drsd import DRSD
from ..core.intervals import IntervalSet
from ..core.redistribute import Bounds, needed_map, owned_intervals, plan_sends
from ..errors import PlanCheckError

__all__ = [
    "PlanViolation",
    "RedistPlan",
    "accesses_to_phases",
    "build_plan",
    "verify_plan",
    "verify_transition",
]


@dataclass(frozen=True)
class PlanViolation:
    """One invariant breach found in a redistribution plan."""

    code: str      # lost-row | duplicate-row | phantom-row | unowned-send
    #                | send-to-removed | ghost-gap | self-send | bad-rank
    array: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.array}: {self.message}"


@dataclass
class RedistPlan:
    """An explicit redistribution plan over a group of ``n`` relative
    ranks: ``sends[(src, dst)][array]`` is the sorted tuple of global
    rows ``src`` packs for ``dst``.  Empty transfers are omitted."""

    n: int
    sends: dict = field(default_factory=dict)

    def add(self, src: int, dst: int, array: str, rows: Sequence[int]) -> None:
        rows = tuple(sorted(rows))
        if rows:
            self.sends.setdefault((src, dst), {})[array] = rows

    def rows_sent(self) -> int:
        return sum(
            len(rows) for entry in self.sends.values() for rows in entry.values()
        )

    def incoming(self, dst: int, array: str) -> list[tuple[int, tuple]]:
        """[(src, rows), ...] addressed to ``dst`` for ``array``."""
        return [
            (s, entry[array])
            for (s, d), entry in sorted(self.sends.items())
            if d == dst and array in entry
        ]


class _AccessPhase:
    """Duck-typed stand-in for :class:`repro.core.phase.Phase` carrying
    only what :func:`needed_map` reads (``phase_id``, ``accesses``), so
    the verifier can run from bare DRSD lists (CLI, tests) without a
    communication-pattern model."""

    __slots__ = ("phase_id", "accesses")

    def __init__(self, phase_id: int, accesses: Sequence[DRSD]):
        self.phase_id = phase_id
        self.accesses = list(accesses)


def accesses_to_phases(accesses: Sequence[DRSD]) -> Mapping[int, _AccessPhase]:
    """Wrap a flat DRSD list as the one-phase mapping ``needed_map``
    expects."""
    return {0: _AccessPhase(0, accesses)}


def build_plan(
    old_bounds: Bounds,
    new_bounds: Bounds,
    phases: Mapping[int, object],
    array_rows: Mapping[str, int],
) -> RedistPlan:
    """Derive the plan :func:`~repro.core.redistribute.redistribute`
    would execute: ``src`` sends ``dst`` the rows ``dst`` needs under
    the new bounds, did not own before, and ``src`` did own before.
    Derivation is pure interval algebra
    (:func:`~repro.core.redistribute.plan_sends`); only the explicit
    plan object expands transfers to row tuples."""
    n = len(new_bounds)
    needed = needed_map(phases, new_bounds, array_rows)
    plan = RedistPlan(n)
    for (src, dst), entry in plan_sends(old_bounds, needed,
                                        list(array_rows)).items():
        for name, rows in entry.items():
            plan.add(src, dst, name, rows)
    return plan


def verify_plan(
    plan: RedistPlan,
    old_bounds: Bounds,
    new_bounds: Bounds,
    phases: Mapping[int, object],
    array_rows: Mapping[str, int],
    *,
    raise_on_error: bool = True,
) -> list[PlanViolation]:
    """Check ``plan`` against the Section 4.4 invariants.

    Returns the violation list (empty when the plan is sound); with
    ``raise_on_error`` a non-empty list raises
    :class:`~repro.errors.PlanCheckError` instead.
    """
    n = len(new_bounds)
    if len(old_bounds) != n or plan.n != n:
        raise PlanCheckError([PlanViolation(
            "bad-rank", "*",
            f"plan covers {plan.n} ranks but bounds cover "
            f"{len(old_bounds)} (old) / {n} (new)",
        )])
    needed = needed_map(phases, new_bounds, array_rows)
    violations: list[PlanViolation] = []

    # -- sender-side checks on every declared transfer ------------------
    for (src, dst), entry in sorted(plan.sends.items()):
        if not (0 <= src < n and 0 <= dst < n):
            violations.append(PlanViolation(
                "bad-rank", "*", f"transfer {src}->{dst} outside group of {n}"
            ))
            continue
        if src == dst:
            violations.append(PlanViolation(
                "self-send", "*", f"rank {src} schedules a message to itself"
            ))
            continue
        src_old = owned_intervals(old_bounds, src)
        dst_old = owned_intervals(old_bounds, dst)
        for name, rows in sorted(entry.items()):
            if name not in array_rows:
                violations.append(PlanViolation(
                    "bad-rank", name, f"transfer {src}->{dst} names an "
                    f"unregistered array"
                ))
                continue
            rows_ivl = IntervalSet.from_rows(rows)
            unowned = rows_ivl - src_old
            if unowned:
                violations.append(PlanViolation(
                    "unowned-send", name,
                    f"rank {src} sends rows {unowned.to_rows()} to {dst} "
                    f"but did not own them under the old distribution "
                    f"(stale ghost copies must never be the source)",
                ))
            if new_bounds[dst] is None and not needed[dst][name]:
                violations.append(PlanViolation(
                    "send-to-removed", name,
                    f"rank {dst} is removed (no new bounds) yet rank {src} "
                    f"sends it rows {rows_ivl.to_rows()[:8]} — removed "
                    f"nodes get send-out, never send-in",
                ))
                continue
            phantom = rows_ivl - needed[dst][name]
            if phantom:
                violations.append(PlanViolation(
                    "phantom-row", name,
                    f"rank {src} sends rows {phantom.to_rows()} to {dst}, "
                    f"which needs none of them under the new bounds",
                ))
            already = rows_ivl & dst_old
            if already:
                violations.append(PlanViolation(
                    "phantom-row", name,
                    f"rank {src} re-sends rows {already.to_rows()} that "
                    f"{dst} already owns authoritatively",
                ))

    # -- receiver-side coverage: every newly needed row arrives once ----
    for dst in range(n):
        dst_old = owned_intervals(old_bounds, dst)
        for name, n_rows in array_rows.items():
            must_arrive = needed[dst][name] - dst_old
            # the transfer list differs per (dst, array), nothing to
            # hoist; verification runs per redistribution
            incoming = [
                (src, IntervalSet.from_rows(rows))
                for src, rows in plan.incoming(dst, name)
            ]
            seen = IntervalSet.empty()
            dup = IntervalSet.empty()
            for _src, rows_ivl in incoming:
                dup = dup | (seen & rows_ivl)
                seen = seen | rows_ivl
            lost = must_arrive - seen
            if lost:
                violations.append(PlanViolation(
                    "lost-row", name,
                    f"rank {dst} needs rows {lost.to_rows()} under the new "
                    f"bounds but no rank sends them (hold() would silently "
                    f"zero-fill)",
                ))
            # sender lookup only for the (rare) duplicated rows
            for r in dup:
                senders = sorted(
                    src for src, rows_ivl in incoming if r in rows_ivl
                )
                violations.append(PlanViolation(
                    "duplicate-row", name,
                    # violation message: only built for duplicated
                    # rows, which a correct plan never has
                    f"row {r} arrives at rank {dst} from multiple senders "
                    f"{senders}",
                ))

    # -- ghost coverage: needed sets reach every DRSD read access -------
    for rel in range(n):
        b = new_bounds[rel]
        if b is None:
            continue
        s, e = b
        for phase in phases.values():
            for acc in phase.accesses:
                if not acc.reads:
                    continue
                touched = acc.needed_intervals(s, e, array_rows[acc.array])
                gap = touched - needed[rel][acc.array]
                if gap:
                    violations.append(PlanViolation(
                        "ghost-gap", acc.array,
                        f"rank {rel} reads rows {gap.to_rows()} (DRSD "
                        f"offsets [{acc.lo_off},{acc.hi_off}]) but its "
                        f"needed set omits them",
                    ))

    if violations and raise_on_error:
        raise PlanCheckError(violations)
    return violations


def verify_transition(
    old_bounds: Bounds,
    new_bounds: Bounds,
    phases: Mapping[int, object],
    array_rows: Mapping[str, int],
    *,
    raise_on_error: bool = True,
) -> tuple[RedistPlan, list[PlanViolation]]:
    """Build the runtime's own plan for a distribution change and
    verify it — the self-check :class:`~repro.core.runtime.DynMPI`
    runs before every redistribution when the sanitizer is enabled."""
    plan = build_plan(old_bounds, new_bounds, phases, array_rows)
    violations = verify_plan(
        plan, old_bounds, new_bounds, phases, array_rows,
        raise_on_error=raise_on_error,
    )
    return plan, violations
