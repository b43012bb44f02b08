"""Figure 7 bench — grace period length with sub-10 ms iterations.

Particle simulation, 8 nodes, Part in {10, 50}; grace period 1 vs 5.
Shape assertions: iteration timing uses gethrtime (not /PROC), and the
5-cycle grace period produces a distribution at least as good as the
1-cycle one (the paper: 13-16% better).
"""

from repro.experiments import format_figure7, run_figure7
from repro.experiments.harness import bench_scale

DEFAULT_SCALE = 1.0


def test_fig7_graceperiod(benchmark, record_table):
    cells = benchmark.pedantic(
        lambda: run_figure7(scale=bench_scale(DEFAULT_SCALE)),
        rounds=1, iterations=1,
    )
    record_table("fig7_graceperiod", format_figure7(cells), data=cells)
    by = {(c.part, c.grace_period): c for c in cells}
    for part in (10.0, 50.0):
        gp1, gp5 = by[(part, 1)], by[(part, 5)]
        # sub-10ms iterations force the wallclock timer
        assert gp5.estimate_source == "hrtimer"
        # GP=5 must not lose to GP=1, and should win for the heavier
        # imbalance
        assert gp5.cycle_time <= gp1.cycle_time * 1.02
    assert by[(50.0, 5)].cycle_time < by[(50.0, 1)].cycle_time
