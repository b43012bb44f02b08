"""Switched-Ethernet network model.

Message cost decomposes exactly the way the paper's Section 4.3
argues it must:

* **wire time** — ``latency + nbytes / bandwidth``, serialized on the
  sender's and receiver's NIC links (a switched network forwards at
  link rate, so concurrent senders to one receiver queue on the
  receiver's link);
* **CPU time** — ``cpu_per_msg + nbytes * cpu_per_byte`` work units
  charged *by the MPI layer* on each side.  The CPU component is what
  makes naive relative-power distributions suboptimal, because a
  loaded node pays for communication with CPU it does not have.

The network object itself only models wire time and delivery ordering;
CPU charging happens in :mod:`repro.mpi.comm` so that the overlap of
computation and communication follows from process scheduling.

Accounting contract: ``n_messages``/``n_bytes`` count each *logical*
message exactly once, at first submission — a message held across a
partition is already counted and is **not** recounted when
:meth:`Network.heal` reinjects it.
"""

from __future__ import annotations

from typing import Callable

from ..config import NetworkSpec
from ..errors import SimulationError
from .kernel import Simulator, to_ns

__all__ = ["Network"]

#: local (same-node) copies run at this multiple of the link bandwidth
_LOCAL_SPEEDUP = 20.0
_LOCAL_LATENCY = 1e-6

#: one queued message: (src, dst, nbytes, on_delivered)
_Message = tuple[int, int, int, Callable[[], None]]


class Network:
    """Star topology through a single non-blocking switch."""

    def __init__(self, sim: Simulator, spec: NetworkSpec, n_nodes: int,
                 obs=None):
        if n_nodes < 1:
            raise SimulationError("network needs at least one node")
        self.sim = sim
        self.spec = spec
        self.n_nodes = n_nodes
        #: per NIC, when its link is next free (ns)
        self._out_free = [0] * n_nodes
        self._in_free = [0] * n_nodes
        self._latency = to_ns(spec.latency)
        self.n_messages = 0
        self.n_bytes = 0
        #: isolated island of a network partition (empty = fully
        #: connected); messages crossing the cut are *held*, not
        #: dropped, and retransmitted on heal
        self._island: frozenset[int] = frozenset()
        self._held: list[_Message] = []
        #: the cluster's dynscope recorder (None = off): every message
        #: put on the wire is appended to its ``flights``
        self.obs = obs

    def cpu_cost(self, nbytes: int) -> float:
        """CPU work units one endpoint spends handling a message."""
        return self.spec.cpu_per_msg + nbytes * self.spec.cpu_per_byte

    def wire_time(self, nbytes: int) -> float:
        """Uncontended one-way wire time for a message of ``nbytes``."""
        return self.spec.latency + nbytes / self.spec.bandwidth

    def _check(self, src: int, dst: int, nbytes: int) -> None:
        if not (0 <= src < self.n_nodes and 0 <= dst < self.n_nodes):
            raise SimulationError(f"bad endpoints {src}->{dst}")
        if nbytes < 0:
            raise SimulationError(f"negative message size {nbytes}")

    def transmit(
        self,
        src: int,
        dst: int,
        nbytes: int,
        on_delivered: Callable[[], None],
    ) -> float:
        """Schedule delivery of a message; returns the delivery time (ns).

        ``on_delivered`` fires when the last byte reaches ``dst``.
        Counts the message (once, here — see the module docstring) even
        when a partition holds it.
        """
        self._check(src, dst, nbytes)
        self.n_messages += 1
        self.n_bytes += nbytes
        if self._crosses_cut(src, dst):
            # hold until heal(); a partition delays traffic, it never
            # loses it, so the layers above need no retransmission
            self._held.append((src, dst, nbytes, on_delivered))
            return float("inf")
        return self._inject(src, dst, nbytes, on_delivered)

    def _inject(self, src: int, dst: int, nbytes: int,
                on_delivered: Callable[[], None]) -> float:
        """Serialize one counted, non-held message onto the NICs."""
        now = self.sim.now
        if src == dst:
            deliver = now + to_ns(_LOCAL_LATENCY + nbytes / (self.spec.bandwidth * _LOCAL_SPEEDUP))
        else:
            tx = to_ns(nbytes / self.spec.bandwidth)
            send_start = max(now, self._out_free[src])
            self._out_free[src] = send_start + tx
            arrive_start = send_start + self._latency
            deliver = max(arrive_start, self._in_free[dst]) + tx
            self._in_free[dst] = deliver
        self.sim.schedule(deliver - now, on_delivered)
        if self.obs is not None:
            self.obs.flights.append((src, dst, nbytes, now, deliver))
        return deliver

    # -- partitions ----------------------------------------------------
    def partition(self, island: set[int]) -> None:
        """Cut the switch between ``island`` and the remaining nodes.

        Traffic inside the island and traffic entirely outside it still
        flows; anything crossing the cut is held until :meth:`heal`.
        """
        for n in island:
            if not (0 <= n < self.n_nodes):
                raise SimulationError(f"bad partition node {n}")
        self._island = frozenset(island)

    def heal(self) -> None:
        """Reconnect the island and reinject every held message.

        Held messages were counted when first submitted, so this path
        must not touch ``n_messages``/``n_bytes`` — it goes straight to
        the injection layer."""
        self._island = frozenset()
        held, self._held = self._held, []
        for message in held:
            self._inject(*message)

    @property
    def partitioned(self) -> bool:
        return bool(self._island)

    @property
    def n_held(self) -> int:
        return len(self._held)

    def _crosses_cut(self, src: int, dst: int) -> bool:
        return bool(self._island) and (src in self._island) != (dst in self._island)
