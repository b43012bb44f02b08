"""Trace exporters: Chrome Trace Event JSON and flat JSONL.

Both exporters are deterministic: events are emitted in ``(ts, seq)``
order, every JSON object is dumped with sorted keys and fixed
separators, and all timestamps are simulated time — so two identical
seeded runs export byte-identical files (the tests assert this).

Chrome format (one dict per event in ``traceEvents``):

* ``ph="X"`` complete events carry ``ts`` + ``dur`` in *microseconds*
  of simulated time (the Trace Event format's unit);
* ``ph="i"`` instants carry ``s="t"`` (thread scope);
* ``ph="M"`` metadata names the tracks: ``pid`` is a node (reserved
  ``-1`` = job, ``-2`` = network), ``tid`` is a world rank (reserved
  ``-1`` = the node's CPU track).

The scheduler's CPU slices and the NIC model's wire flights are plain
tuples on the recorder; :func:`trace_events` turns them into track
events.  CPU slices of one node never overlap (the scheduler
serializes them), but in-flight messages do — so flights are laid out
on the network process in *lanes*: each takes the lowest-numbered
thread that is free for its whole flight.  Tracks stay disjoint, which
keeps the Chrome schema validator satisfied, and the lane assignment
is a pure function of the (deterministic) flight list.

Load the file straight into https://ui.perfetto.dev or
``chrome://tracing``.

The JSONL export is the machine-readable twin: line 1 is a
``trace-meta`` record (format version + merged metrics snapshot), then
one event object per line with times in simulated *seconds*.  The CLI's
``summarize``/``diff`` read either format back via :func:`load_trace`.
"""

from __future__ import annotations

import json
import pathlib
from typing import Union

from ..errors import ConfigError
from ..simcluster.kernel import to_s
from .recorder import CPU_TID, JOB_PID, NET_PID, ObsEvent, ObsRecorder

__all__ = [
    "chrome_trace",
    "chrome_json",
    "jsonl_text",
    "load_trace",
    "trace_events",
    "write_trace",
]

#: simulated seconds -> Trace Event microseconds
_US = 1e6

#: JSONL format version (bump on incompatible record changes)
JSONL_VERSION = 1


def _pid_name(pid: int) -> str:
    if pid == JOB_PID:
        return "job"
    if pid == NET_PID:
        return "network"
    return f"node{pid}"


def _tid_name(tid: int) -> str:
    return "cpu" if tid == CPU_TID else f"rank{tid}"


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def trace_events(recorder: ObsRecorder) -> list[ObsEvent]:
    """Everything the recording holds, in export order: its events plus
    one ``cpu.<proc>`` span per CPU slice (the node's :data:`CPU_TID`
    track) and one ``net.msg`` span per wire flight (a lane of the
    :data:`NET_PID` process), sorted by timestamp — stably, so events
    of one instant keep emission order with the simulator tracks last."""
    events = list(recorder.events)
    for node, proc, start, end in recorder.slices:
        events.append(ObsEvent(f"cpu.{proc}", "sim", "X", to_s(start),
                               to_s(end - start), node, CPU_TID,
                               {"proc": proc}))
    lanes: list[int] = []  # lane index -> end of its last flight (ns)
    for src, dst, nbytes, sent, delivered in sorted(
            recorder.flights, key=lambda f: (f[3], f[4], f[0], f[1])):
        for lane, busy_until in enumerate(lanes):
            if busy_until <= sent:
                break
        else:
            lane = len(lanes)
            lanes.append(0)
        lanes[lane] = delivered
        events.append(ObsEvent("net.msg", "sim", "X", to_s(sent),
                               to_s(delivered - sent), NET_PID, lane,
                               {"src": src, "dst": dst, "nbytes": nbytes}))
    events.sort(key=lambda e: e.ts)
    return events


def chrome_trace(recorder: ObsRecorder) -> dict:
    """The recording as a Chrome Trace Event dict (JSON-ready)."""
    recorded = trace_events(recorder)
    tracks: dict[int, set[int]] = {}
    for ev in recorded:
        tracks.setdefault(ev.pid, set()).add(ev.tid)
    events: list[dict] = []
    for pid, tids in sorted(tracks.items()):
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "ts": 0, "args": {"name": _pid_name(pid)},
        })
        events.append({
            "name": "process_sort_index", "ph": "M", "pid": pid, "tid": 0,
            "ts": 0, "args": {"sort_index": pid},
        })
        for tid in sorted(tids):
            events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "ts": 0, "args": {"name": _tid_name(tid)},
            })
    for ev in recorded:
        d = {
            "name": ev.name, "cat": ev.cat, "ph": ev.ph,
            "ts": ev.ts * _US, "pid": ev.pid, "tid": ev.tid,
        }
        if ev.ph == "X":
            d["dur"] = ev.dur * _US
        elif ev.ph == "i":
            d["s"] = "t"
        if ev.args:
            d["args"] = ev.args
        events.append(d)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def chrome_json(recorder: ObsRecorder) -> str:
    return _dump(chrome_trace(recorder)) + "\n"


def jsonl_text(recorder: ObsRecorder) -> str:
    """The recording as JSONL: a ``trace-meta`` line (metrics snapshot
    included) followed by one event per line, times in seconds."""
    recorded = trace_events(recorder)
    lines = [_dump({
        "kind": "trace-meta",
        "version": JSONL_VERSION,
        "metrics": recorder.merged_registry().snapshot(),
        "n_events": len(recorded),
    })]
    lines.extend(_dump(ev.to_dict()) for ev in recorded)
    return "\n".join(lines) + "\n"


def write_trace(recorder: ObsRecorder, out, fmt: str = "chrome") -> int:
    """Write the recording in ``fmt`` ("chrome" or "jsonl") to ``out``
    — a path, or a text file already open for writing; returns the
    number of events written."""
    if fmt == "chrome":
        text = chrome_json(recorder)
    elif fmt == "jsonl":
        text = jsonl_text(recorder)
    else:
        raise ValueError(f"unknown trace format {fmt!r}")
    if hasattr(out, "write"):
        out.write(text)
    else:
        pathlib.Path(out).write_text(text, encoding="utf-8")
    return len(recorder.events) + len(recorder.slices) + len(recorder.flights)


def load_trace(path: Union[str, pathlib.Path]) -> tuple[dict, list[dict]]:
    """Read a trace file back as ``(meta, events)`` with event times in
    simulated seconds.  Accepts both export formats: a Chrome trace
    (one JSON object with ``traceEvents``, metadata events dropped,
    microseconds converted back) or the JSONL event log.  A file that
    is not a trace raises ConfigError."""
    text = pathlib.Path(path).read_text(encoding="utf-8")
    try:
        return _parse_trace(text)
    except ValueError as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"{path}: {exc}") from None


def _parse_trace(text: str) -> tuple[dict, list[dict]]:
    stripped = text.lstrip()
    if not stripped:
        raise ValueError("empty trace file")
    first = json.loads(stripped.splitlines()[0])
    if isinstance(first, dict) and "traceEvents" in first:
        raw = json.loads(text)["traceEvents"]
        if not (isinstance(raw, list) and all(isinstance(d, dict) for d in raw)):
            raise ValueError("'traceEvents' must be a list of objects")
        events = []
        for d in raw:
            if d.get("ph") == "M":
                continue
            ev = dict(d)
            ev["ts"] = d.get("ts", 0) / _US
            if "dur" in d:
                ev["dur"] = d["dur"] / _US
            ev.pop("s", None)
            events.append(ev)
        return {"kind": "trace-meta", "version": JSONL_VERSION,
                "metrics": None, "n_events": len(events)}, events
    meta: dict = {"kind": "trace-meta", "version": JSONL_VERSION,
                  "metrics": None}
    events = []
    for line in text.splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        if not isinstance(obj, dict):
            raise ValueError("not a trace (expected one object per line)")
        if obj.get("kind") == "trace-meta":
            meta = obj
        else:
            events.append(obj)
    return meta, events
