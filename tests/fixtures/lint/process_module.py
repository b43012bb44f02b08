"""Seeded-bad fixture for DYN801 (process-level parallelism in
library code).

Every import below is a finding when linted at a library path
(``src/repro/apps/...``); the same file is clean outside the zone,
which is why it may sit under tests/ without tripping the CI lint
gate.  The last import demonstrates the ``# dyn: ok(DYN801)`` suppression
and must NOT be reported.
"""

import multiprocessing                          # noqa: F401  (finding 1)
from concurrent.futures import ProcessPoolExecutor  # noqa: F401 (finding 2)
import subprocess                               # noqa: F401  (finding 3)

import subprocess as sp                         # noqa: F401  # dyn: ok(DYN801)


def fan_out(jobs):
    with multiprocessing.Pool() as pool:
        return pool.map(str, jobs)
