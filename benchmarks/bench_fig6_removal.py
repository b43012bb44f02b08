"""Figure 6 bench — SOR node removal on the Ultra-Sparc cluster.

{8,16,32} nodes x {1,2,3} competing processes; average post-
redistribution cycle time with the loaded node kept vs physically
dropped.  Shape assertions: the benefit of dropping grows with the
node count (i.e. as the computation/communication ratio shrinks) and
with the number of competing processes; at 8 nodes dropping is at
best marginal.
"""

from repro.experiments import format_figure6, run_figure6
from repro.experiments.harness import bench_scale

DEFAULT_SCALE = 1.0  # 1024^2 is already modest; run the paper's size
ITERS = 120


def test_fig6_removal(benchmark, record_table):
    cells = benchmark.pedantic(
        lambda: run_figure6(scale=bench_scale(DEFAULT_SCALE), iters=ITERS),
        rounds=1, iterations=1,
    )
    record_table("fig6_removal", format_figure6(cells), data=cells)
    by = {(c.n_nodes, c.n_cp): c for c in cells}

    # every forced-drop run actually dropped the loaded node
    assert all(c.dropped for c in cells)

    # benefit grows with competing processes at 16 and 32 nodes
    for n in (16, 32):
        assert by[(n, 3)].drop_gain > by[(n, 1)].drop_gain

    # dropping is marginal at 8 nodes with one competing process
    assert by[(8, 1)].drop_gain < 0.10

    # and clearly worthwhile at 32 nodes with three
    assert by[(32, 3)].drop_gain > 0.15
