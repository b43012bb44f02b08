"""Figure 3 bench — projection vs contiguous allocation.

Regenerates the quantitative comparison behind the paper's Figure 3:
memory traffic and modeled cost of both layouts across a sweep of
partition-boundary shifts, for dense and sparse matrices.
"""

from repro.experiments import format_memalloc, run_memalloc
from repro.experiments.harness import bench_scale


def test_fig3_memalloc(benchmark, record_table):
    rows = benchmark.pedantic(
        lambda: run_memalloc(scale=bench_scale()),
        rounds=1, iterations=1,
    )
    record_table("fig3_memalloc", format_memalloc(rows), data=rows)
    dense = [r for r in rows if r.kind == "dense"]
    # the paper's claim must hold everywhere: projection never moves
    # more bytes than contiguous
    for r in rows:
        assert r.proj_bytes_copied <= r.cont_bytes_copied
        assert r.proj_bytes_alloc <= r.cont_bytes_alloc
    # and for small shifts the work gap is large
    assert dense[0].work_ratio > 10
