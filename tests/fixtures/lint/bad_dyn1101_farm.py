"""Seeded-bad fixture for DYN1101 (farm-protocol access outside the
farm runtime and the one-sided home).

The raw band tags and the ad-hoc ``Window(...)`` below are findings
when linted at a library path (``src/repro/apps/...``); the same file is
clean outside the zone, which is why it may sit under tests/ without
tripping the CI lint gate.  The suppressed lines demonstrate
``# dyn: ok(DYN1101)`` and must NOT be reported.
"""


def splice_into_farm(ep, master):
    yield from ep.send(master, 211, None, nbytes=64)       # (finding 1)
    payload, status = yield from ep.recv(master, tag=213)  # (finding 2)
    return payload, status


def adhoc_window(comm):
    from repro.mpi.rma import Window
    return Window(comm, 4, name="rogue")                   # (finding 3)


def sanctioned_uses(ep, comm, master):
    from repro.mpi.rma import Window
    win = Window(comm, 4)                             # dyn: ok(DYN1101)
    yield from ep.send(master, 214, None, nbytes=64)  # dyn: ok(DYN1101)
    yield from ep.send(master, 101, None, nbytes=64)  # outside the band
    yield from ep.recv(master, tag=209)               # just below the band
    yield from ep.recv(master, tag=220)               # just above the band
    return win
