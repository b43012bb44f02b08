"""Synthetic tuning experiments (the tech-report [27] material the
paper references from Sections 4.2/4.3): balancing-policy and
monitoring ablations.

* ``run_balance_ablation`` — for a sweep of computation:communication
  ratios, compare the *predicted and simulated* cycle times of the
  naive relative-power distribution against successive balancing.
  This is the quantitative backing for the paper's claim that naive
  distributions degrade because communication consumes CPU.
* ``run_monitor_ablation`` — detection latency of ``dmpi_ps`` vs
  ``vmstat`` for an application that blocks at receives: vmstat
  samples taken while the app is blocked miss it entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..config import pentium_cluster
from ..core import (
    CommCostModel,
    NearestNeighbor,
    closed_form_shares,
    naive_shares,
    predict_times,
)
from ..core.power import available_powers
from ..simcluster import Cluster, Compute, Sleep, to_ns
from ..sysmon import DmpiPs, Vmstat
from .report import format_table

__all__ = [
    "BalanceAblationRow",
    "run_balance_ablation",
    "format_balance_ablation",
    "MonitorAblationRow",
    "run_monitor_ablation",
    "format_monitor_ablation",
]


@dataclass(frozen=True)
class BalanceAblationRow:
    comp_comm_ratio: float
    t_naive: float
    t_balanced: float

    @property
    def gain(self) -> float:
        return 1.0 - self.t_balanced / self.t_naive


def run_balance_ablation(
    *,
    ratios: Sequence[float] = (64.0, 16.0, 4.0, 1.0, 0.25),
    n_nodes: int = 4,
    loads: Optional[Sequence[int]] = None,
    scale: Optional[float] = None,
) -> list[BalanceAblationRow]:
    """Predicted cycle times, naive vs comm-aware, as the computation
    to communication ratio shrinks."""
    spec = pentium_cluster(n_nodes)
    model = CommCostModel.from_spec(spec.network, spec.node.speed)
    loads = list(loads) if loads is not None else [2] + [1] * (n_nodes - 1)
    avails = available_powers([spec.node.speed] * n_nodes, loads)
    n_rows = 2048
    rows = []
    for ratio in ratios:
        # fix the communication (one row each way) and set total work
        # to ratio x the per-node comm CPU work
        pattern = NearestNeighbor(row_nbytes=2048 * 8)
        comm_cpu = model.cpu_work(2048 * 8, 1) * 4  # a middle node's cycle
        total_work = ratio * comm_cpu * n_nodes
        t_naive = predict_times(
            naive_shares(avails), total_work, avails, [pattern], model, n_rows
        ).max()
        res = closed_form_shares(total_work, avails, [pattern], model, n_rows)
        rows.append(BalanceAblationRow(ratio, float(t_naive),
                                       res.predicted_cycle_time))
    return rows


def format_balance_ablation(rows: Sequence[BalanceAblationRow]) -> str:
    return format_table(
        ["comp:comm", "naive cycle(s)", "balanced cycle(s)", "gain(%)"],
        [(r.comp_comm_ratio, r.t_naive, r.t_balanced, r.gain * 100) for r in rows],
        title="Successive balancing vs naive relative power (predicted)",
    )


@dataclass(frozen=True)
class MonitorAblationRow:
    monitor: str
    detection_delay: float  # seconds from CP start to first sample >= 2
    missed_samples: int     # samples taken after CP start that read < 2


def run_monitor_ablation(
    *,
    blocked_fraction: float = 0.7,
    duration: float = 30.0,
    cp_start: float = 5.0,
    interval: float = 1.0,
) -> list[MonitorAblationRow]:
    """An app alternating compute and blocking waits; a CP arrives at
    ``cp_start``.  How quickly does each monitor report load >= 2?"""
    from ..config import ClusterSpec, NodeSpec

    results = []
    for name in ("dmpi_ps", "vmstat"):
        cluster = Cluster(ClusterSpec(n_nodes=1, node=NodeSpec(speed=1e8)))
        node = cluster.nodes[0]
        period = 0.050
        compute_work = 1e8 * period * (1 - blocked_fraction)

        def app():
            while cluster.sim.now < to_ns(duration):
                yield Compute(compute_work)
                yield Sleep(period * blocked_fraction)

        proc = cluster.sim.spawn(app(), name="app", node=node)
        if name == "dmpi_ps":
            mon = DmpiPs(cluster, interval=interval, jitter=False)
            mon.register_monitored(0, proc)
        else:
            mon = Vmstat(cluster, interval=interval)
        mon.start()
        cluster.sim.schedule(to_ns(cp_start), lambda n=node: n.start_competing())
        cluster.sim.run_all([proc])

        history = mon.history(0)
        detect = float("nan")
        missed = 0
        for t, load in history:
            if t < cp_start:
                continue
            if load >= 2 and detect != detect:
                detect = t - cp_start
            if load < 2:
                missed += 1
        results.append(MonitorAblationRow(name, detect, missed))
    return results


def format_monitor_ablation(rows: Sequence[MonitorAblationRow]) -> str:
    return format_table(
        ["monitor", "detection delay(s)", "missed samples"],
        [(r.monitor, r.detection_delay, r.missed_samples) for r in rows],
        title="Load monitor ablation — dmpi_ps vs vmstat",
    )
