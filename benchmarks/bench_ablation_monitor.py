"""Ablation bench — dmpi_ps vs vmstat (Section 4.2's motivation).

An application that blocks at receives for most of each cycle; vmstat
samples taken while it is blocked miss it, so its load readings are
unusable, while dmpi_ps (running/ready + monitored app always counted)
detects the competing process at its first post-arrival sample.
"""

from repro.experiments import format_monitor_ablation, run_monitor_ablation


def test_monitor_ablation(benchmark, record_table):
    rows = benchmark.pedantic(run_monitor_ablation, rounds=1, iterations=1)
    record_table("ablation_monitor", format_monitor_ablation(rows), data=rows)
    by = {r.monitor: r for r in rows}
    # dmpi_ps detects at its first sample after the CP appears
    assert by["dmpi_ps"].detection_delay <= 1.0
    assert by["dmpi_ps"].missed_samples == 0
    # vmstat keeps under-reporting while the app is blocked
    assert by["vmstat"].missed_samples > 0
