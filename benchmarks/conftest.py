"""Shared fixtures for the figure/table benches.

Every bench honors ``DYNMPI_BENCH_SCALE`` (0 < s <= 1, default is the
per-bench default scale) and writes its rendered table both to stdout
and to ``benchmarks/results/<name>.txt`` so results survive pytest's
capture.

The machine-readable ``BENCH_<name>.json`` sidecars are serialized
through :mod:`repro.campaign.results` — the same code path the
campaign engine's aggregates use — so the format has exactly one
definition.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.campaign.results import render_bench_json

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(autouse=True, scope="session")
def _sanitizer_must_be_off():
    """Benchmark numbers must come from unsanitized runs.

    The dynsan runtime sanitizer (docs/ANALYSIS.md) is strictly opt-in;
    a stray ``DYNMPI_SANITIZE`` in the environment would silently add
    per-message bookkeeping to every figure/table bench.  Fail loudly
    instead of publishing polluted timings.
    """
    from repro.analysis import sanitizer_enabled

    assert not sanitizer_enabled(object()), (
        "DYNMPI_SANITIZE is set: the communication sanitizer would skew "
        "benchmark timings — unset it before running benches"
    )


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def record_table(results_dir):
    """Write the rendered table to ``results/<name>.txt``; when ``data``
    is given, also emit the underlying numbers machine-readably to
    ``results/BENCH_<name>.json`` (one JSON per figure/table, for
    plotting and regression tooling that must not scrape text)."""
    def _record(name: str, table: str, data=None) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(table + "\n")
        print()
        print(table)
        print(f"[written to {path}]")
        if data is not None:
            jpath = results_dir / f"BENCH_{name}.json"
            jpath.write_text(render_bench_json(name, data))
            print(f"[data written to {jpath}]")
    return _record
