"""Figure 5 bench — Jacobi with multiple redistribution points.

Short (period=50) and Long (period=500) executions; policies
No Redist / Redist Once / Redist Twice.  Shape assertions:

* redistributing after the load arrives wins over never redistributing,
* the second redistribution is worthwhile for the Long run,
* for the Short run its benefit is marginal or negative (the paper:
  the redistribution cost negates the speedup).
"""

from repro.experiments import format_figure5, run_figure5
from repro.experiments.harness import bench_scale

DEFAULT_SCALE = 0.5


def test_fig5_multiredist(benchmark, record_table):
    cells = benchmark.pedantic(
        lambda: run_figure5(scale=bench_scale(DEFAULT_SCALE)),
        rounds=1, iterations=1,
    )
    record_table("fig5_multiredist", format_figure5(cells), data=cells)
    by = {(c.period_len, c.policy): c for c in cells}
    shorts = sorted({c.period_len for c in cells})
    short, long_ = shorts[0], shorts[-1]

    # redistribution after period 1 helps in both runs
    for p in (short, long_):
        assert by[(p, "redist_once")].total < by[(p, "no_redist")].total

    # the second redistribution pays off for the long run...
    assert by[(long_, "redist_twice")].total < by[(long_, "redist_once")].total
    # ...but gains little or loses for the short one
    gain_short = (by[(short, "redist_once")].total
                  - by[(short, "redist_twice")].total)
    gain_long = (by[(long_, "redist_once")].total
                 - by[(long_, "redist_twice")].total)
    assert gain_long / by[(long_, "redist_once")].total > \
        gain_short / by[(short, "redist_once")].total
