"""Seeded-bad dynflow fixture: a slab gather outside owned+halo.

The phase declares a one-row halo (``lo_off=-1, hi_off=1``) but the
slab-at-a-time kernel gathers ``block(lo - 2, hi + 1)`` — row ``s - 2``
is never redistributed to this rank.  DYN504 through the block
accessors (``block`` / ``set_block`` / ``hold(range(...))``) and the
grid-edge clips, which are no-ops at the interior witness.
"""

from repro.core import AccessMode, NearestNeighbor


def widegather_program(ctx, cfg):
    n = cfg.n
    grid = ctx.register_dense("grid", (n, n), materialized=True)
    out = ctx.register_dense("out", (n, n), materialized=True)
    ctx.init_phase(1, n, NearestNeighbor(row_nbytes=n * 8))
    for name in ("grid", "out"):
        ctx.add_array_access(1, name, AccessMode.READWRITE, lo_off=-1, hi_off=1)
    ctx.commit()

    def work_of(s, e):
        return [1.0] * (e - s + 1)

    def exec_rows(lo, hi):
        # two rows back: outside the halo
        halo = grid.block(max(lo - 2, 0), min(hi + 1, n - 1))
        out.hold(range(lo, hi + 1))
        out.set_block(lo, halo[2:-1])

    yield from ctx.begin_cycle()
    if ctx.participating():
        yield from ctx.compute(1, work_of, exec_rows)
    yield from ctx.end_cycle()
