"""Oracle: the pre-dynkern event loop, one heap and nothing else.

This preserves the original scheduler **verbatim** — every event a
``heapq`` push of ``(time, seq, Timer)``, a closure thunk for argument
binding, no tombstone accounting and so no compaction.  It defines the
``(time, seq)`` total order :class:`repro.simcluster.kernel.Simulator`
must reproduce: the property suite runs random scheduling programs and
whole scenarios on both and asserts the same execution order, the same
``n_events`` and byte-identical dynscope exports.  It is intentionally
slow — do not "optimise" it; any behavioural change here silently
weakens the oracle.

``with reference_engine():`` builds every :class:`Cluster` inside the
block on this loop.
"""

from __future__ import annotations

import contextlib
import heapq
from typing import Any, Callable

from repro.errors import SimulationError
from repro.simcluster import cluster as cluster_module
from repro.simcluster.kernel import Simulator, Timer

__all__ = ["ReferenceSimulator", "reference_engine"]


class ReferenceSimulator(Simulator):
    """Single-heap engine; see module docstring."""

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> Timer:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        # sim=None: a cancel is a bare tombstone, never counted or compacted
        t = Timer((lambda: fn(*args)) if args else fn, (), None)
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, t))
        return t

    def call_soon(self, fn: Callable[..., None], *args: Any) -> Timer:
        return self.schedule(0.0, fn, *args)

    def schedule_at(self, when: float, fn: Callable[..., None], *args: Any) -> Timer:
        # the absolute-time twin of schedule (added with the API, same shape)
        if when < self.now:
            raise SimulationError(f"cannot schedule in the past (at {when})")
        t = Timer((lambda: fn(*args)) if args else fn, (), None)
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, t))
        return t

    def run(self, until: float = float("inf"), max_events: int = 200_000_000) -> float:
        """Run until the heap drains or ``until`` is reached."""
        self._stopped = False
        while self._heap and not self._stopped:
            t, _, timer = self._heap[0]
            if t > until:
                self.now = until
                return self.now
            heapq.heappop(self._heap)
            if timer.cancelled:
                continue
            if t < self.now - 1e-12:
                raise SimulationError("time went backwards")
            self.now = t
            self.n_events += 1
            if self.n_events > max_events:
                raise SimulationError(f"exceeded {max_events} events; runaway simulation?")
            timer.fn()
        if not self._stopped:
            self._check_deadlock()
        return self.now


@contextlib.contextmanager
def reference_engine():
    """Build every ``Cluster`` on the reference loop."""
    real = cluster_module.Simulator
    cluster_module.Simulator = ReferenceSimulator
    try:
        yield
    finally:
        cluster_module.Simulator = real
