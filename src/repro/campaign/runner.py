"""Worker-side combo execution.

:func:`run_combo` is the unit of work the pool distributes: build the
scenario for one parameter assignment, run it (``BuiltScenario.run``:
the deterministic, single-process simulator), and return a plain-dict
result row.  It is a module-level function so it pickles across
``multiprocessing`` workers, and it touches no campaign state —
journaling stays with the parent's
:class:`~repro.campaign.sweeper.ParamSweeper`.

:func:`safe_run_combo` is the pool wrapper: it converts any exception
into an error row instead of letting it tear down the map call, so
one poisoned combo cannot wedge the sweep (the engine retries it a
bounded number of times, then quarantines it).
"""

from __future__ import annotations

import traceback

from .scenarios import build_scenario, resolve_params
from .space import combo_slug

__all__ = ["run_combo", "safe_run_combo"]


def run_combo(params: dict) -> dict:
    """Execute one combo; returns ``{slug, params, metrics}``.

    Metrics are simulated quantities only (wall time on the simulated
    clock, adaptation counts, mean cycle time) — never host wall-clock
    — so a result row is a pure function of its parameters and the
    aggregate stays byte-stable across runs, hosts, and interrupts.
    """
    # identity = the declared combo, not the resolved assignment: the
    # sweeper journals the slug of what the space expanded to, and the
    # two differ when a spec leans on defaults
    slug = combo_slug(params)
    built = build_scenario(resolve_params(params))
    result = built.run()
    if built.farm_spec is not None:
        metrics = {
            "wall_time": float(result.wall_time),
            "jobs_done": int(result.jobs_done),
            "jobs_per_sec": float(result.jobs_per_sec),
            "n_requeued": int(result.n_requeued),
            "duplicates": int(result.duplicates),
            "park_events": int(result.park_events),
            "readmit_events": int(result.readmit_events),
            "dead_workers": len(result.dead_workers),
        }
    else:
        metrics = {
            "wall_time": float(result.wall_time),
            "n_redistributions": int(result.n_redistributions),
            "n_drops": int(result.n_drops),
            "n_crash_recoveries": sum(
                1 for ev in result.events if ev.kind == "crash_recovery"
            ),
            "mean_cycle_time": float(result.mean_cycle_time()),
            "n_events": len(result.events),
        }
    checks = {}
    if built.oracle is not None:
        err = built.oracle(result)
        checks["oracle"] = err or "ok"
        if err:
            raise AssertionError(f"oracle violation: {err}")
    return {"slug": slug, "params": dict(params),
            "metrics": metrics, "checks": checks}


def safe_run_combo(params: dict) -> dict:
    """Pool-safe wrapper: exceptions become error rows."""
    try:
        row = run_combo(params)
        row["ok"] = True
        return row
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException as exc:  # noqa: BLE001 — worker boundary
        return {
            "slug": combo_slug(params),
            "params": dict(params),
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(limit=8),
        }
