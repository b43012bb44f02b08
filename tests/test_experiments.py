"""Smoke + shape tests of the experiment modules at tiny scale (the
benches assert full-shape at larger scales; these keep the harness
itself honest in the regular test run)."""

import numpy as np
import pytest

from repro.experiments import (
    Scenario,
    bench_scale,
    cg_4node_narrative,
    format_balance_ablation,
    format_figure4,
    format_figure5,
    format_figure6,
    format_figure7,
    format_memalloc,
    format_monitor_ablation,
    format_table,
    run_balance_ablation,
    run_figure4,
    run_figure5,
    run_figure7,
    run_memalloc,
    run_monitor_ablation,
    scaled,
    scaled_spec,
    steady_state_cycle_time,
)
from repro.config import RuntimeSpec
from repro.errors import ConfigError


def test_bench_scale_env(monkeypatch):
    monkeypatch.delenv("DYNMPI_BENCH_SCALE", raising=False)
    assert bench_scale() == 1.0
    assert bench_scale(0.5) == 0.5
    monkeypatch.setenv("DYNMPI_BENCH_SCALE", "0.25")
    assert bench_scale() == 0.25
    assert bench_scale(0.5) == 0.25
    monkeypatch.setenv("DYNMPI_BENCH_SCALE", "2.0")
    with pytest.raises(ConfigError):
        bench_scale()


def test_scaled_floors():
    assert scaled(1000, 0.5) == 500
    assert scaled(10, 0.01, minimum=4) == 4
    assert scaled(10, 1.0) == 10


def test_scaled_spec_adjusts_daemon():
    base = RuntimeSpec(daemon_interval=1.0)
    assert scaled_spec(base, 1.0) is base
    s = scaled_spec(base, 0.1)
    assert s.daemon_interval == pytest.approx(0.01)
    tiny = scaled_spec(base, 0.001)
    assert tiny.daemon_interval == 0.001  # floored


def test_figure4_tiny_scale_shape():
    rows = run_figure4(nodes=(2,), apps=("jacobi",), scale=0.12)
    assert len(rows) == 1
    r = rows[0]
    assert r.t_noadapt > r.t_dedicated
    assert r.t_dynmpi <= r.t_noadapt * 1.05
    table = format_figure4(rows)
    assert "jacobi" in table and "improvement" in table


def test_figure5_tiny_scale_runs():
    cells = run_figure5(periods=(30,), scale=0.12)
    assert len(cells) == 3
    policies = {c.policy for c in cells}
    assert policies == {"no_redist", "redist_once", "redist_twice"}
    once = next(c for c in cells if c.policy == "redist_once")
    assert once.n_redists <= 1
    twice = next(c for c in cells if c.policy == "redist_twice")
    assert twice.n_redists >= once.n_redists
    assert "period1(s)" in format_figure5(cells)


def test_figure7_tiny_scale_runs():
    cells = run_figure7(parts=(10.0,), grace_periods=(1, 2), n_nodes=4,
                        scale=0.15)
    assert len(cells) == 2
    assert all(c.cycle_time > 0 for c in cells)
    assert "GP" in format_figure7(cells)


def test_memalloc_invariants_at_any_scale():
    rows = run_memalloc(scale=0.2)
    for r in rows:
        assert r.proj_bytes_copied == 0
        assert r.cont_bytes_alloc >= r.proj_bytes_alloc
        assert r.work_ratio >= 1.0
    assert "cont/proj work" in format_memalloc(rows)


def test_balance_ablation_monotone():
    rows = run_balance_ablation(ratios=(16.0, 1.0))
    assert rows[1].gain >= rows[0].gain
    assert "gain(%)" in format_balance_ablation(rows)


def test_monitor_ablation_shape():
    rows = run_monitor_ablation(duration=15.0)
    by = {r.monitor: r for r in rows}
    assert by["dmpi_ps"].missed_samples == 0
    assert by["vmstat"].missed_samples > 0
    assert "vmstat" in format_monitor_ablation(rows)


def test_cg_narrative_tiny_scale():
    n = cg_4node_narrative(scale=0.1)
    assert n.t_dedicated > 0
    assert n.t_dynmpi < n.t_noadapt
    assert len(n.shares) in (0, 4)


def test_steady_state_cycle_time_window():
    class FakeResult:
        cycle_times = [[1.0] * 10 + [2.0] * 10, []]

    assert steady_state_cycle_time(FakeResult(), tail_frac=0.25) == 2.0


def test_format_table_rendering():
    out = format_table(["a", "longer"], [(1, 2.5), ("x", float("nan"))],
                       title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "longer" in lines[1]
    assert "-" in lines[2]
    assert out.count("\n") == 4
