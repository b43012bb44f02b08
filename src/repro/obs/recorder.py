"""dynscope event recording: structured spans and instants.

An :class:`ObsRecorder` is the single sink every layer emits into —
the runtime's adaptation decisions, the redistribution data plane, the
MPI layer's message latencies, the resilience layer's checkpoint tax,
the load and failure scripts' marks, and the simulator's own CPU
slices and wire flights.  Events carry the *simulated* clock
(``sim.now``), so a trace of a seeded run is bitwise reproducible and
loads into Perfetto with the same timeline every time.

Tracks follow the Chrome trace convention: ``pid`` is the node (with
two reserved virtual processes, :data:`JOB_PID` for job-level
adaptation events and :data:`NET_PID` for wire activity), ``tid`` is
the world rank (with :data:`CPU_TID` reserved for the node's CPU track:
scheduler slices and the load / fault marks).

One off-state: ``cluster.obs`` is ``None`` unless observability was
opted into, and every instrumented site — hot paths included — pays
one ``is not None`` test.  Nothing records while off.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..errors import SimulationError
from .registry import MetricsRegistry

__all__ = [
    "CPU_TID",
    "JOB_PID",
    "NET_PID",
    "ObsEvent",
    "ObsRecorder",
    "obs_enabled",
]

#: virtual Chrome-trace process for job-level (rank-agnostic) events
JOB_PID = -1
#: virtual Chrome-trace process for network wire activity
NET_PID = -2
#: virtual thread for a node's CPU track (scheduler slices, load marks)
CPU_TID = -1


def obs_enabled(spec: Any) -> bool:
    """Resolve the opt-in: explicit ``spec.observe`` wins, the
    ``DYNMPI_OBS`` environment variable fills in for ``None``."""
    import os

    explicit = getattr(spec, "observe", None)
    if explicit is not None:
        return bool(explicit)
    return os.environ.get("DYNMPI_OBS", "0") not in ("", "0")


class ObsEvent:
    """One trace event (Chrome Trace Event semantics).

    ``ph`` is ``"X"`` (complete span: ``ts`` + ``dur``), ``"i"``
    (instant) or ``"C"`` (counter sample).  Times are simulated
    seconds; the exporters convert to microseconds.
    """

    __slots__ = ("name", "cat", "ph", "ts", "dur", "pid", "tid", "args")

    def __init__(self, name: str, cat: str, ph: str, ts: float, dur: float,
                 pid: int, tid: int, args: Optional[dict]):
        self.name = name
        self.cat = cat
        self.ph = ph
        self.ts = ts
        self.dur = dur
        self.pid = pid
        self.tid = tid
        self.args = args

    def to_dict(self) -> dict:
        d = {
            "name": self.name, "cat": self.cat, "ph": self.ph,
            "ts": self.ts, "pid": self.pid, "tid": self.tid,
        }
        if self.ph == "X":
            d["dur"] = self.dur
        if self.args:
            d["args"] = self.args
        return d

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ObsEvent {self.ph} {self.name} ts={self.ts:.6f} "
                f"pid={self.pid} tid={self.tid}>")


def _scalar(value: Any) -> Any:
    """Coerce an args value to something JSON-stable (numpy scalars
    and arrays would otherwise leak nondeterministic reprs)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    item = getattr(value, "item", None)
    if item is not None and getattr(value, "shape", None) == ():
        return item()
    if isinstance(value, (list, tuple)):
        return [_scalar(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _scalar(v) for k, v in value.items()}
    tolist = getattr(value, "tolist", None)
    if tolist is not None:
        return tolist()
    return str(value)


class ObsRecorder:
    """The event sink: emit spans and instants, read back
    :attr:`events`; per-rank metric registries merge into one view for
    reporting.  The simulator's scheduler and NIC model append to
    :attr:`slices` and :attr:`flights` as plain tuples (one per CPU
    slice / wire flight is too many for an :class:`ObsEvent` each); the
    exporters turn them into the ``cpu.<proc>`` / ``net.msg`` tracks."""

    def __init__(self, *, clock: Optional[Callable[[], float]] = None):
        self._clock = clock or (lambda: 0.0)
        self.events: list[ObsEvent] = []
        #: ``(node, proc, start, end)`` per CPU slice, in completion
        #: order (``RoundRobinCPU._account_current``)
        self.slices: list[tuple[int, str, float, float]] = []
        #: ``(src, dst, nbytes, sent, delivered)`` per message put on
        #: the wire (``Network._inject``; one held across a partition
        #: appears when ``heal()`` sends it)
        self.flights: list[tuple[int, int, int, float, float]] = []
        self._registries: dict[int, MetricsRegistry] = {}

    def now(self) -> float:
        return self._clock()

    # -- emission -------------------------------------------------------
    def _push(self, name: str, cat: str, ph: str, ts: float, dur: float,
              pid: int, tid: int, args: dict) -> None:
        clean = {k: _scalar(v) for k, v in args.items()} if args else None
        self.events.append(ObsEvent(name, cat, ph, ts, dur, pid, tid, clean))

    def complete(self, name: str, t0: float, *, cat: str = "app",
                 pid: int = JOB_PID, tid: int = 0,
                 dur: Optional[float] = None, **args) -> None:
        """Record a complete ("X") event that began at ``t0`` and ends
        now (or lasted ``dur``) — call it after the yields it covers."""
        if dur is None:
            dur = max(0.0, self.now() - t0)
        self._push(name, cat, "X", t0, dur, pid, tid, args)

    def instant(self, name: str, *, cat: str = "app", pid: int = JOB_PID,
                tid: int = 0, **args) -> None:
        self._push(name, cat, "i", self.now(), 0.0, pid, tid, args)

    # -- metrics --------------------------------------------------------
    def rank_registry(self, rank: int) -> MetricsRegistry:
        """The per-rank metrics registry (created on first use)."""
        reg = self._registries.get(rank)
        if reg is None:
            reg = self._registries[rank] = MetricsRegistry()
        return reg

    def merged_registry(self) -> MetricsRegistry:
        """All ranks' registries merged into one (rank order, so gauge
        last-wins is deterministic)."""
        merged = MetricsRegistry()
        merged.merge(self._registries[r] for r in sorted(self._registries))
        return merged

    # -- reading --------------------------------------------------------
    def sorted_events(self) -> list[ObsEvent]:
        """Events in (timestamp, emission) order: the sort is stable and
        :attr:`events` is append-only."""
        return sorted(self.events, key=lambda e: e.ts)

    def busy_time(self, node: int, proc_prefix: str = "") -> float:
        """Total CPU seconds on ``node`` for processes whose name
        starts with ``proc_prefix`` ('' = everything)."""
        return sum(end - start for n, proc, start, end in self.slices
                   if n == node and proc.startswith(proc_prefix))

    def timeline(self, node: int, t0: float = 0.0,
                 t1: Optional[float] = None, width: int = 72) -> str:
        """Render node ``node``'s CPU occupancy in ``[t0, t1]`` as one
        text line, one character per time bucket (first letter of the
        running process, '.' for idle)::

            n0 |rrrrrrrrccccrrrrcccc....|
        """
        if t1 is None:
            t1 = self.now()
        if t1 <= t0:
            raise SimulationError("empty timeline window")
        step = (t1 - t0) / width
        chars = ["."] * width
        for n, proc, start, end in self.slices:
            if n != node or end <= t0 or start >= t1:
                continue
            a = max(0, int((start - t0) / step))
            b = min(width - 1, int((end - t0) / step))
            chars[a:b + 1] = (proc[:1] or "?") * (b + 1 - a)
        return f"n{node} |" + "".join(chars) + "|"
