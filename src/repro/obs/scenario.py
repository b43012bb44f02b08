"""The canonical observed run: a small, fast Jacobi node-removal
scenario (the Figure 6 recipe shrunk to smoke-test size).

Four Ultra-Sparc nodes run Jacobi; competing processes land on node 0
partway in, the runtime measures through a grace period, redistributes,
and — under a forcing ``drop_margin`` — physically removes the loaded
node after the post-redistribution window.  One short run therefore
exercises every instrumented code path: cycles, grace-mode compute,
halo traffic, collectives, redistribution, the drop decision with its
predicted-vs-measured inputs, the load mark that caused it all, and the
scheduler's CPU slices and the NIC's wire flights underneath.

The run is fully deterministic, so its exported traces are
byte-identical across invocations — the property the CLI's ``export``
and ``tests/test_obs_cli.py`` lean on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..apps.base import AppResult, run_program
from ..apps.jacobi import JacobiConfig, jacobi_program
from ..config import ResilienceSpec, RuntimeSpec, ultrasparc_cluster
from ..errors import ConfigError
from ..simcluster import Cluster, single_competitor

__all__ = ["RemovalScenario", "run_removal"]


@dataclass(frozen=True)
class RemovalScenario:
    """Knobs of the canonical removal run (defaults are smoke-sized)."""

    n_nodes: int = 4
    n: int = 160          # grid size (n x n)
    iters: int = 36       # phase cycles
    seed: int = 0
    load_cycle: int = 8   # cycle at which the competitors appear
    n_cp: int = 2         # competing processes on node 0
    #: runtime daemon sampling period; the default matches the
    #: historical hard-coded value, so existing traces stay
    #: byte-identical.  Large-scale benches raise it — daemon beats are
    #: O(n log n) events each, and a 1024-node cell at the smoke
    #: cadence would be nothing but daemon traffic.
    daemon_interval: float = 0.002

    def __post_init__(self) -> None:
        for knob, least in (("n_nodes", 1), ("n", 1), ("iters", 1), ("seed", 0)):
            if getattr(self, knob) < least:
                raise ConfigError(
                    f"{knob} must be >= {least}, got {getattr(self, knob)}")


def run_removal(
    scenario: RemovalScenario = RemovalScenario(),
    *,
    observe: Optional[bool] = True,
) -> tuple[AppResult, Cluster]:
    """Run the canonical removal scenario; returns ``(result, cluster)``
    with ``cluster.obs`` holding the recording when ``observe`` is on
    (``observe=None`` defers to ``DYNMPI_OBS``, like every cluster)."""
    cspec = replace(
        ultrasparc_cluster(scenario.n_nodes, seed=scenario.seed),
        observe=observe,
    )
    cluster = Cluster(cspec)
    # the Figure 6 forcing recipe: evaluate the drop branch as soon as
    # the shortened post-redistribution window closes.  The daemon
    # samples far below the paper's 1 Hz because a smoke-sized run's
    # cycles are milliseconds (same adjustment as scaled_spec).
    spec = RuntimeSpec(
        allow_removal=True, drop_margin=1e-9, post_redist_period=5,
        daemon_interval=scenario.daemon_interval,
        # sparse buddy checkpoints: enough to put the checkpoint tax in
        # the trace without drowning the run in resilience traffic
        resilience=ResilienceSpec(checkpoint_interval=6),
    )
    result = run_program(
        cluster,
        jacobi_program,
        JacobiConfig(n=scenario.n, iters=scenario.iters,
                     materialized=False),
        spec=spec,
        adaptive=True,
        load_script=single_competitor(
            0, start_cycle=scenario.load_cycle, count=scenario.n_cp
        ),
    )
    return result, cluster
