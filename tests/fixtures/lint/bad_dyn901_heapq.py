"""Seeded-bad fixture for DYN901 (event-queue manipulation outside
the kernel modules).

The heapq imports and the ``sim._heap`` pokes below are findings when
linted at a library path (``src/repro/apps/...``); the same file is clean
outside the zone, which is why it may sit under tests/ without
tripping the CI lint gate.  The last import demonstrates the
``# dyn: ok(DYN901)`` suppression and must NOT be reported.
"""

import heapq                                    # noqa: F401  (finding 1)
from heapq import heappush                      # noqa: F401  (finding 2)

import heapq as hq                              # noqa: F401  # dyn: ok(DYN901)


def sneak_in_timer(sim, when, timer):
    # two findings: the read on the left and the push target
    depth = len(sim._heap)                      # (finding 3)
    heappush(sim._heap, (when, -1, timer))      # (finding 4)
    return depth
