"""Cost attribution: where did the simulated seconds go?

Every rank's track is a properly nested stack of spans (cycle >
collective > send, redistribution > neighbor_alltoallv > send, ...).
Charging each span's full duration to its own category would
double-count the nesting, so the attribution walks each track with a
stack and charges every span's *exclusive* time (its duration minus
its children's) to a phase bucket:

========  =====================================================
bucket    meaning
========  =====================================================
compute   application row execution (normal/post cycles)
grace     row execution during a measurement grace period — the
          paper's Section 4.2 instrumentation overhead
comm      application message passing (sends, receives,
          collectives) outside redistribution
redist    Section 4.4 data redistribution (plan, pack, exchange,
          unpack) — *including* the messages it sends
ckpt      resilience checkpoint exchanges (the checkpoint tax)
recovery  crash recovery (checkpoint replay + repair exchange)
other     everything else on the track: cycle bookkeeping,
          control allgathers' slack, idle-in-span time
========  =====================================================

``redist``/``ckpt``/``recovery`` are *sticky*: spans nested under them
(e.g. the neighbor_alltoallv inside a redistribution) charge to the
enclosing bucket, so "comm" is application communication only and the full price
of a redistribution is visible in one number — the attribution
ReSHAPE-style tooling needs.

All functions here operate on plain event dicts (times in seconds), so
they work identically on a live recorder and on a loaded trace file.
"""

from __future__ import annotations

from typing import Iterable, Optional

__all__ = [
    "PHASES",
    "attribute",
    "diff_reports",
    "format_diff",
    "format_report",
    "span_bucket",
    "summarize",
]

PHASES = ("compute", "grace", "comm", "redist", "ckpt", "recovery", "other")

#: buckets whose nested spans charge to them, not to their own bucket
_STICKY = frozenset({"redist", "ckpt", "recovery"})

_TOL = 1e-12


def span_bucket(ev: dict) -> str:
    """The phase bucket a span charges to (before sticky ancestors)."""
    cat = ev.get("cat", "")
    if cat == "compute":
        args = ev.get("args") or {}
        return "grace" if args.get("mode") == "grace" else "compute"
    if cat in ("mpi", "coll"):
        return "comm"
    if cat == "redist":
        return "redist"
    if cat == "ckpt":
        return "ckpt"
    if cat == "recover":
        return "recovery"
    return "other"


def _attribute_track(spans: list[tuple[float, float, str]],
                     sums: dict[str, float]) -> None:
    """Charge each span's exclusive time to its (sticky-resolved)
    bucket.  ``spans`` are (ts, dur, bucket), any order."""
    spans = sorted(spans, key=lambda s: (s[0], -s[1]))
    stack: list[list] = []  # [end, bucket, dur, child_time]

    def close(upto: float) -> None:
        while stack and stack[-1][0] <= upto + _TOL:
            end, bucket, dur, child = stack.pop()
            sums[bucket] += max(0.0, dur - child)
            if stack:
                stack[-1][3] += dur

    for ts, dur, bucket in spans:
        close(ts)
        if stack and stack[-1][1] in _STICKY:
            bucket = stack[-1][1]
        stack.append([ts + dur, bucket, dur, 0.0])
    close(float("inf"))


def attribute(events: Iterable[dict]) -> dict:
    """Per-phase cost attribution over plain event dicts.

    Only rank tracks (``pid >= 0 and tid >= 0``) enter the per-rank
    phase sums; job/network/cpu-slice tracks are reflected in the
    event counts and the wall clock.
    """
    per_track: dict[int, list[tuple[float, float, str]]] = {}
    counts: dict[str, int] = {}
    adaptations: dict[str, int] = {}
    wall = 0.0
    for ev in events:
        cat = ev.get("cat", "")
        counts[cat] = counts.get(cat, 0) + 1
        name = ev.get("name", "")
        if name.startswith("adapt."):
            kind = name[len("adapt."):]
            adaptations[kind] = adaptations.get(kind, 0) + 1
        ts = float(ev.get("ts", 0.0))
        dur = float(ev.get("dur", 0.0)) if ev.get("ph") == "X" else 0.0
        wall = max(wall, ts + dur)
        if ev.get("ph") != "X":
            continue
        pid, tid = ev.get("pid", 0), ev.get("tid", 0)
        if pid < 0 or tid < 0:
            continue
        per_track.setdefault(tid, []).append((ts, dur, span_bucket(ev)))

    per_rank: dict[str, dict[str, float]] = {}
    total = {phase: 0.0 for phase in PHASES}
    for tid in sorted(per_track):
        sums = {phase: 0.0 for phase in PHASES}
        _attribute_track(per_track[tid], sums)
        sums["total"] = sum(sums.values())
        per_rank[str(tid)] = sums
        for phase in PHASES:
            total[phase] += sums[phase]
    total["total"] = sum(total[phase] for phase in PHASES)
    return {
        "wall": wall,
        "per_rank": per_rank,
        "total": total,
        "counts": dict(sorted(counts.items())),
        "adaptations": dict(sorted(adaptations.items())),
    }


def summarize(meta: Optional[dict], events: Iterable[dict]) -> dict:
    """Attribution + the metrics snapshot from a trace-meta record."""
    report = attribute(events)
    if meta and meta.get("metrics") is not None:
        report["metrics"] = meta["metrics"]
    return report


def _fmt(seconds: float) -> str:
    return f"{seconds * 1e3:10.3f}"


def format_report(report: dict, title: str = "cost attribution") -> str:
    ranks = sorted(report["per_rank"], key=int)
    lines = [f"{title} (milliseconds of simulated time)"]
    header = f"{'phase':<10} {'total':>10}" + "".join(
        f" {'r' + r:>10}" for r in ranks
    )
    lines.append(header)
    lines.append("-" * len(header))
    for phase in (*PHASES, "total"):
        row = f"{phase:<10} {_fmt(report['total'][phase])}"
        for r in ranks:
            row += f" {_fmt(report['per_rank'][r][phase])}"
        lines.append(row)
    lines.append(f"wall: {report['wall'] * 1e3:.3f} ms")
    if report.get("adaptations"):
        ad = ", ".join(f"{k}={v}" for k, v in report["adaptations"].items())
        lines.append(f"adaptations: {ad}")
    return "\n".join(lines)


def diff_reports(a: dict, b: dict) -> dict:
    """Per-phase deltas between two attribution reports (b - a)."""
    phases = {}
    for phase in (*PHASES, "total"):
        ta = a["total"][phase]
        tb = b["total"][phase]
        delta = tb - ta
        phases[phase] = {
            "a": ta, "b": tb, "delta": delta,
            "pct": (delta / ta * 100.0) if ta else None,
        }
    return {
        "phases": phases,
        "wall": {"a": a["wall"], "b": b["wall"], "delta": b["wall"] - a["wall"]},
    }


def format_diff(diff: dict, name_a: str = "A", name_b: str = "B") -> str:
    header = (f"{'phase':<10} {name_a[:10]:>10} {name_b[:10]:>10} "
              f"{'delta':>10} {'pct':>8}")
    lines = [
        "per-phase deltas (milliseconds of simulated time)",
        header,
        "-" * len(header),
    ]
    for phase, row in diff["phases"].items():
        pct = f"{row['pct']:+7.1f}%" if row["pct"] is not None else "     n/a"
        lines.append(
            f"{phase:<10} {_fmt(row['a'])} {_fmt(row['b'])} "
            f"{_fmt(row['delta'])} {pct}"
        )
    w = diff["wall"]
    lines.append(
        f"wall: {w['a'] * 1e3:.3f} -> {w['b'] * 1e3:.3f} ms "
        f"({w['delta'] * 1e3:+.3f})"
    )
    return "\n".join(lines)
