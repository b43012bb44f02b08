"""Particle simulation — the scaled-down MP3D stand-in (paper
Sections 5.1, 5.4).

A rows x cols cell grid carries particle *counts*; each time step,
every cell deterministically sheds a fraction of its particles to the
rows above/below and drifts a fraction within the row (see
:func:`~repro.apps.kernels.particle_block_flows`).  Cross-row flows at a
partition boundary travel by explicit messages.  Per-row cost is
``cells * c1 + particles * c2``, so the computation is *unbalanced*
and evolves over time — the property the paper uses to exercise
per-iteration timing (Section 4.2 / Figure 7).

The substitution (tracked counts instead of individual MP3D molecules)
preserves what the experiments measure: nonuniform, data-dependent
per-row work and row-boundary particle migration.  DESIGN.md records
this under substitutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from ..core import AccessMode, NearestNeighbor
from .base import require_at_least
from .kernels import (
    PARTICLE_WORK_PER_CELL,
    PARTICLE_WORK_PER_PARTICLE,
    particle_block_flows,
)

__all__ = ["ParticleConfig", "particle_program", "initial_counts"]

_FLOW_UP_TAG = 111
_FLOW_DOWN_TAG = 112


@dataclass(frozen=True)
class ParticleConfig:
    rows: int = 256
    cols: int = 256
    steps: int = 200
    #: particles per cell everywhere (paper 5.1: "one or two")
    base_density: float = 1.5
    #: extra density factor applied to ``hot_rows`` (paper 5.1: one node
    #: had twice as many particles)
    hot_factor: float = 1.0
    #: rows [0, hot_rows) receive base_density * hot_factor
    hot_rows: int = 0
    #: Figure 7 variant: particles/cell in the top half of P0's rows
    #: (None = use base_density/hot_factor instead)
    part_top: float | None = None
    n_nodes_hint: int = 8  # used to size the Figure 7 hot region
    collect: bool = False
    seed: int = 7

    def __post_init__(self) -> None:
        require_at_least(self, 1, "rows", "cols", "n_nodes_hint")
        require_at_least(self, 0, "steps", "base_density", "hot_factor", "hot_rows")
        if self.part_top is not None:
            require_at_least(self, 0, "part_top")


def initial_counts(cfg: ParticleConfig) -> np.ndarray:
    counts = np.full((cfg.rows, cfg.cols), float(cfg.base_density))
    if cfg.part_top is not None:
        # Figure 7: the top half of the rows initially owned by P0
        hot = cfg.rows // (2 * cfg.n_nodes_hint)
        counts[:hot] = float(cfg.part_top)
    elif cfg.hot_rows > 0:
        counts[: cfg.hot_rows] *= cfg.hot_factor
    return np.floor(counts * 2) / 2.0  # half-particle resolution


def particle_program(ctx, cfg: ParticleConfig) -> Generator:
    R, C = cfg.rows, cfg.cols
    grid = ctx.register_dense("C", (R, C), materialized=True)
    ctx.init_phase(1, R, NearestNeighbor(row_nbytes=C * 8))
    ctx.add_array_access(1, "C", AccessMode.READWRITE)
    ctx.commit()

    init = initial_counts(cfg)
    for g in grid.held_rows():
        grid.row(g)[:] = init[g]

    def work_of(s: int, e: int) -> np.ndarray:
        particles = grid.rows(s, e).sum(axis=1)
        return C * PARTICLE_WORK_PER_CELL + particles * PARTICLE_WORK_PER_PARTICLE

    for step in range(cfg.steps):
        yield from ctx.begin_cycle()
        if ctx.participating():
            s, e = ctx.my_bounds()
            if e >= s:
                new = np.zeros((e - s + 1, C))  # row g accumulates in new[g - s]
                edge_up = np.zeros(C)    # flow leaving row s upward
                edge_down = np.zeros(C)  # flow leaving row e downward

                def exec_rows(lo: int, hi: int) -> None:
                    stay, up, down = particle_block_flows(
                        grid.rows(lo, hi), lo, step, cfg.seed
                    )
                    a, b = lo - s, hi - s + 1
                    # each row takes its neighbours' flows in row
                    # order: down from above, its own, up from below
                    new[a + 1:b] += down[:-1]
                    new[a:b] += stay
                    # the block's two edge rows (reflecting grid
                    # boundaries)
                    if lo == 0:
                        new[a] += up[0]
                    elif lo > s:
                        new[a - 1] += up[0]
                    else:
                        edge_up[:] += up[0]
                    if hi == R - 1:
                        new[b - 1] += down[-1]
                    elif hi < e:
                        new[b] += down[-1]
                    else:
                        edge_down[:] += down[-1]
                    new[a:b - 1] += up[1:]

                yield from ctx.compute(1, work_of, exec_rows)

                # exchange boundary flows with the block neighbors
                left, right = ctx.nn_neighbors()
                reqs = []
                if left is not None:
                    reqs.append((yield from ctx.ep.isend(
                        ctx.active_group.world(left), _FLOW_UP_TAG, edge_up
                    )))
                if right is not None:
                    reqs.append((yield from ctx.ep.isend(
                        ctx.active_group.world(right), _FLOW_DOWN_TAG, edge_down
                    )))
                if left is not None:
                    inflow, _ = yield from ctx.recv_rel(left, _FLOW_DOWN_TAG)
                    new[0] += inflow
                if right is not None:
                    inflow, _ = yield from ctx.recv_rel(right, _FLOW_UP_TAG)
                    new[-1] += inflow
                for req in reqs:
                    yield from req.wait()

                grid.set_block(s, new)
        yield from ctx.end_cycle()

    result = {"bounds": ctx.my_bounds(), "cycles": len(ctx.cycle_times)}
    if ctx.participating():
        s, e = ctx.my_bounds()
        result["particles"] = float(
            sum(grid.row(g).sum() for g in range(s, e + 1))
        ) if e >= s else 0.0
    if cfg.collect and ctx.participating():
        from .base import collect_rows

        result["grid"] = yield from collect_rows(ctx, grid)
    return result
