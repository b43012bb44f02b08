"""The shared ``BENCH_*.json`` serializer and campaign aggregation.

This module is the one home of the machine-readable benchmark format:
the pytest benches (``benchmarks/conftest.py``) and the campaign
aggregator both serialize through :func:`render_bench_json`, so a
``BENCH_<name>.json`` file means the same thing no matter which tool
wrote it — ``{"name": ..., "data": ...}`` with sorted keys, two-space
indent, and a trailing newline, byte-for-byte.

Campaign aggregation is deterministic by construction: per-combo
result rows are sorted by slug and summarized with order-independent
statistics, so the aggregate of an interrupted-and-resumed sweep is
byte-identical to that of an uninterrupted one.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "jsonable",
    "bench_payload",
    "render_bench_json",
    "write_bench_json",
    "aggregate_results",
]


def jsonable(obj):
    """Best-effort conversion of bench payloads (dataclass rows, numpy
    scalars/arrays, nested containers) into JSON-serializable data."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    return str(obj)


def bench_payload(name: str, data) -> dict:
    """The canonical BENCH payload: ``name`` + converted ``data``."""
    return {"name": name, "data": jsonable(data)}


def render_bench_json(name: str, data) -> str:
    """The exact bytes of a ``BENCH_<name>.json`` file."""
    return json.dumps(bench_payload(name, data), indent=2, sort_keys=True) + "\n"


def write_bench_json(directory: pathlib.Path, name: str, data) -> pathlib.Path:
    """Write ``BENCH_<name>.json`` under ``directory``; returns the path."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    path.write_text(render_bench_json(name, data))
    return path


# ---------------------------------------------------------------------------
# campaign aggregation
# ---------------------------------------------------------------------------

#: metric fields summarized per group (must exist in every result row
#: of that group; farm rows carry a different metric set than the
#: phase-structured apps, and groups are keyed by app so never mix)
_SUMMARY_METRICS = ("wall_time", "n_redistributions", "n_drops")
_FARM_SUMMARY_METRICS = (
    "wall_time", "jobs_done", "jobs_per_sec", "n_requeued", "duplicates",
)


def _mean(values: Sequence[float]) -> float:
    # plain left-to-right sum over slug-sorted rows: deterministic
    return sum(values) / len(values) if values else float("nan")


def aggregate_results(
    campaign: str,
    results: Sequence[Mapping],
    skipped: Sequence[str] = (),
    *,
    n_combos: Optional[int] = None,
) -> dict:
    """Fold per-combo result rows into the campaign aggregate.

    ``results`` rows are dicts with at least ``slug``, ``params`` and
    ``metrics`` keys (what :func:`repro.campaign.runner.run_combo`
    returns).  Rows are re-sorted by slug so the output is independent
    of completion order; ``skipped`` (quarantined combo slugs) is
    sorted for the same reason.  Group summaries are keyed on
    ``app x n_nodes``.
    """
    rows = sorted(results, key=lambda r: r["slug"])
    groups: dict[tuple, list] = {}
    for row in rows:
        params = row["params"]
        key = (str(params.get("app", "?")), int(params.get("n_nodes", 0)))
        groups.setdefault(key, []).append(row["metrics"])
    group_rows = []
    for (app, n_nodes), metrics in sorted(groups.items()):
        summary = {"app": app, "n_nodes": n_nodes, "count": len(metrics)}
        fields = (_FARM_SUMMARY_METRICS if app == "farm"
                  else _SUMMARY_METRICS)
        for field in fields:
            values = [float(m[field]) for m in metrics]
            summary[f"mean_{field}"] = _mean(values)
            summary[f"min_{field}"] = min(values)
            summary[f"max_{field}"] = max(values)
        group_rows.append(summary)
    return {
        "campaign": campaign,
        "n_combos": len(rows) + len(skipped) if n_combos is None else n_combos,
        "n_done": len(rows),
        "skipped": sorted(skipped),
        "groups": group_rows,
        "combos": [
            {"slug": r["slug"], "params": jsonable(r["params"]),
             "metrics": jsonable(r["metrics"])}
            for r in rows
        ],
    }
