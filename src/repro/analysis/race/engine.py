"""The dynrace static checker: DYN701 (wildcard-receive race) and
DYN702 (schedule-dependent control flow).

The engine reuses dynflow's interprocedural trace builder
(:class:`~repro.analysis.flow.collectives.CollectiveAnalyzer`) purely
as a summarizer — its own DYN5xx findings are the ``flow`` pass's
business and are discarded here — then applies the happens-before
model of :mod:`.hb` to the per-root traces.

Concurrency pools are per *module*: sibling program roots in one file
(a master program and its worker program) run in the same job, so
their events race each other; their epoch counters align because both
sides pass the same world-scope collectives.
"""

from __future__ import annotations

from ..flow.callgraph import Registry
from ..flow.collectives import CollectiveAnalyzer
from ..flow.domain import ChoiceNode, LoopNode, render_trace
from ..findings import Finding, SideBySide
from .hb import RaceEvent, collect_events, may_match, race_skeleton

__all__ = ["RaceEngine"]


class RaceEngine:
    def __init__(self, registry: Registry):
        self.reg = registry
        self.trace_builder = CollectiveAnalyzer(registry)
        self.findings: list[Finding] = []
        self._emitted: set = set()

    # -- findings plumbing ---------------------------------------------
    def _emit(self, finding: Finding) -> None:
        key = (finding.code, finding.path, finding.line, finding.anchor)
        if key in self._emitted:
            return
        self._emitted.add(key)
        self.findings.append(finding)

    # -- driver ---------------------------------------------------------
    def run(self) -> list:
        pools: dict = {}
        for root in self.reg.roots():
            pools.setdefault(root.module, []).append(root)
        for _module, roots in sorted(pools.items()):
            events: list[RaceEvent] = []
            traces = []
            for fi in sorted(roots, key=lambda f: f.qualname):
                summary = self.trace_builder.summarize(fi, frozenset())
                traces.append(summary.trace)
                collect_events(summary.trace, fi.qualname, out=events)
            self._check_wildcard_races(events)
            for trace in traces:
                self._check_sched_branches(trace)
        self.findings.sort(key=lambda f: (f.path, f.line, f.code))
        return self.findings

    # -- DYN701 ---------------------------------------------------------
    def _check_wildcard_races(self, events: list) -> None:
        sends = [e for e in events if e.event.kind == "send"]
        for recv in events:
            if not (recv.event.kind == "recv" and recv.event.peer == "*"):
                continue
            candidates = [s for s in sends if may_match(s, recv)]
            sources = {s.pin for s in candidates if s.pin is not None}
            many = any(s.pin is None for s in candidates)
            n_sources = len(sources) + (2 if many else 0)
            if n_sources < 2:
                continue
            self._emit_701(recv, candidates, n_sources)

    def _emit_701(self, recv: RaceEvent, candidates: list,
                  n_sources: int) -> None:
        ordered = sorted(
            candidates,
            key=lambda s: (s.pin is not None, s.event.path, s.event.line),
        )
        left = ordered[0]
        right = ordered[1] if len(ordered) > 1 else ordered[0]
        right_lines = (
            (right.describe(),) if right is not left
            else ("(the same site, executed concurrently by the other "
                  "ranks)",)
        )
        ev = recv.event
        anchor = "|".join(
            [ev.name, ev.peer, ev.tag]
            + sorted({f"{s.event.name}->{s.event.peer}" for s in candidates})
        )
        self._emit(Finding(
            path=ev.path,
            line=ev.line,
            col=0,
            code="DYN701",
            function=ev.func,
            message=(
                f"wildcard receive `{ev.name}` (source=*, tag={ev.tag}) "
                f"can be supplied by {n_sources}+ concurrent sources — "
                f"which message wins is decided by the schedule, not the "
                f"program"
            ),
            anchor=anchor,
            side_by_side=SideBySide(
                left_label="racing send",
                right_label="racing send",
                left=(left.describe(),),
                right=right_lines,
            ),
            hint=(
                "receive from explicit sources (one recv per expected "
                "peer), or make the consumer order-insensitive (key the "
                "accumulation by status.source) and demonstrate trace "
                "invariance under DYNMPI_PERTURB"
            ),
        ))

    # -- DYN702 ---------------------------------------------------------
    def _check_sched_branches(self, trace) -> None:
        for node in trace:
            if isinstance(node, LoopNode):
                self._check_sched_branches(node.body)
            elif isinstance(node, ChoiceNode):
                if node.sched:
                    skels = [race_skeleton(a) for a in node.arms]
                    if any(s != skels[0] for s in skels):
                        self._emit_702(node)
                for arm in node.arms:
                    self._check_sched_branches(arm)

    def _emit_702(self, node: ChoiceNode) -> None:
        arms = [tuple(render_trace(a)) for a in node.arms]
        skels = tuple(race_skeleton(a) for a in node.arms)
        self._emit(Finding(
            path=node.path,
            line=node.line,
            col=0,
            code="DYN702",
            function=node.func,
            message=(
                f"branch on `{node.cond}` derives from a wildcard-receive "
                f"result and its arms emit different communication — the "
                f"message schedule, not the program, picks the traffic "
                f"pattern"
            ),
            anchor=f"{node.cond}|{skels!r}",
            side_by_side=SideBySide(
                left_label=f"ranks where `{node.cond}`",
                right_label=f"ranks where not `{node.cond}`",
                left=arms[0] if arms else (),
                right=arms[1] if len(arms) > 1 else (),
            ),
            hint=(
                "decide control flow from program data (an explicit "
                "source/tag protocol) or make every arm emit the same "
                "communication; schedule-dependent traffic breaks "
                "byte-identical trace replay"
            ),
        ))
