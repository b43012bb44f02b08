"""DYN601 fixture: library code with ad-hoc instrumentation.

Linted by ``tests/test_lint.py`` at a library path (``src/repro/apps/...``;
its real path lacks a ``repro`` component, so the CI lint gate over
``tests/`` never fires on it).  Expected findings, in line order:
``print`` at the module level, ``time.perf_counter()`` in ``work``,
and ``time.time()`` via the ``from``-import — the suppressed and
sysmon-styled lines stay clean.
"""

import time
from time import time as wallclock

print("loading instrumented module")  # DYN601: bare print


def work(n):
    t0 = time.perf_counter()  # DYN601: ad-hoc wallclock timing
    total = sum(range(n))
    elapsed = time.perf_counter() - t0  # dyn: ok(DYN601)
    return total, elapsed


def stamp():
    return wallclock()  # DYN601: time.time via from-import alias


def quiet(n):
    # sanctioned styles: sleeping is not timing, f-strings are not print
    time.sleep(0)
    return f"sum={sum(range(n))}"
