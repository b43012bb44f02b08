"""Failure detection over the ``dmpi_ps`` heartbeat (resilience).

:class:`FailureDetector` layers crash *suspicion* on the 1 Hz
``dmpi_ps`` sampling: a node whose daemon has not heartbeat within the
timeout — or whose monitored application processes have all died — is
suspected dead.  Only relative-rank-0 consults the detector; its
verdict rides the per-cycle control allgather so every rank acts on
one consistent view (see ``DynMPI.begin_cycle``).
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..simcluster import to_s

__all__ = ["FailureDetector"]


class FailureDetector:
    """Heartbeat-staleness crash suspicion over ``dmpi_ps`` samples.

    ``ps`` needs ``last_sample_time(node_id)`` and ``app_alive(node_id)``
    (both on :class:`repro.sysmon.dmpi_ps.DmpiPs`); ``timeout`` is the
    staleness bound in simulated seconds, typically
    ``ResilienceSpec.resolve_timeout(daemon_interval)``.
    """

    def __init__(self, ps, timeout: float, now=None) -> None:
        if timeout <= 0:
            raise ValueError("failure-detector timeout must be positive")
        self.ps = ps
        self.timeout = timeout
        self._now = now if now is not None else (lambda: to_s(ps.cluster.sim.now))
        self.suspected_log: list[tuple[float, int]] = []
        self._already: set[int] = set()

    def suspect(self, node_id: int) -> bool:
        """Is ``node_id`` suspected dead right now?"""
        now = self._now()
        # boot (t=0) counts as an implicit heartbeat so a daemon that
        # simply hasn't phased in yet is not suspected
        last = max(self.ps.last_sample_time(node_id), 0.0)
        stale = now - last > self.timeout
        dead_app = not self.ps.app_alive(node_id)
        suspected = stale or dead_app
        if suspected and node_id not in self._already:
            self._already.add(node_id)
            self.suspected_log.append((now, node_id))
        return suspected

    def sweep(self, node_ids: Iterable[int]) -> list[int]:
        """The subset of ``node_ids`` currently suspected dead."""
        return [n for n in node_ids if self.suspect(n)]

    def detection_latency(self, node_id: int, fail_time: float) -> Optional[float]:
        """Seconds from the injected failure to first suspicion, if
        ``node_id`` was ever suspected."""
        for t, n in self.suspected_log:
            if n == node_id:
                return t - fail_time
        return None
