"""Experiment harness: scaling and summary helpers shared by the
figure modules, which run each scenario with ``run_program`` on a
fresh ``Cluster``.

Scaling: every experiment accepts ``scale`` (default from the
``DYNMPI_BENCH_SCALE`` environment variable, 1.0 = paper sizes).
Linear problem dimensions and iteration counts are scaled so quick
regression runs preserve the figures' *shape*; EXPERIMENTS.md records
results at scale 1.0.
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np

from ..apps import AppResult
from ..config import RuntimeSpec
from ..errors import ConfigError

__all__ = [
    "parse_scale",
    "bench_scale",
    "scaled",
    "scaled_spec",
    "steady_state_cycle_time",
]


def parse_scale(raw: str, source: str = "DYNMPI_BENCH_SCALE") -> float:
    """A scale given as text — the environment variable or the
    ``--scale`` flag, named by ``source`` — or ``ConfigError``."""
    try:
        value = float(raw)
    except ValueError:
        value = float("nan")  # fails the range check below
    if not (0.0 < value <= 1.0):
        raise ConfigError(f"{source} must be a number in (0, 1], got {raw!r}")
    return value


def bench_scale(default: float = 1.0) -> float:
    """The global bench scale from ``DYNMPI_BENCH_SCALE``."""
    raw = os.environ.get("DYNMPI_BENCH_SCALE", "")
    return parse_scale(raw) if raw else default


def scaled(value: int, scale: float, minimum: int = 4) -> int:
    """Scale a linear dimension / iteration count, with a floor."""
    return max(minimum, int(round(value * scale)))


def scaled_spec(base: RuntimeSpec, scale: float) -> RuntimeSpec:
    """Adapt runtime cadences to a scaled-down problem.

    Phase-cycle time shrinks roughly with the square of the linear
    scale (fewer rows x shorter rows), so the 1 Hz daemon of the paper
    would sleep through an entire scaled run; its interval is scaled
    accordingly (floored at 1 ms).  Grace periods are counted in
    cycles and need no adjustment.
    """
    if scale >= 1.0:
        return base
    interval = max(0.001, base.daemon_interval * scale * scale)
    return replace(base, daemon_interval=interval)


def steady_state_cycle_time(result: AppResult, *, tail_frac: float = 0.25) -> float:
    """Mean cycle time over the last ``tail_frac`` of the run (after
    all adaptation events), averaged over the ranks that are still
    participating (non-empty cycle time lists)."""
    means = []
    for ct in result.cycle_times:
        if not ct:
            continue
        k = max(1, int(len(ct) * tail_frac))
        means.append(float(np.mean(ct[-k:])))
    return float(np.mean(means)) if means else float("nan")
