"""Load and fault scripts on the same trigger: the order they fire in.

A cluster keeps its scripts in install order and notifies them in that
order at each cycle boundary; ``run_program`` and ``run_farm`` install
the load script before the fault script.  These runs put a load
trigger and a fault on the same cycle (and, for time triggers, on the
same instant) and pin what comes out: simulated wall time in ns, the
runtime's event count and its adaptation counts.
"""

from repro.apps import JacobiConfig, jacobi_program, run_program
from repro.campaign import run_combo
from repro.config import ClusterSpec, NetworkSpec, NodeSpec, RuntimeSpec
from repro.resilience import CycleFault, FailureScript, TimeFault
from repro.simcluster import Cluster, CycleTrigger, LoadScript, TimeTrigger, to_ns


def test_campaign_combo_with_load_and_slowdown_on_one_cycle():
    row = run_combo({"app": "jacobi", "n_nodes": 2, "load": "n1@c2x2",
                     "failure": "slow:n0@c2x2"})
    m = row["metrics"]
    assert row["checks"] == {"oracle": "ok"}
    assert to_ns(m["wall_time"]) == 12_404_356
    assert (m["n_events"], m["n_redistributions"], m["n_drops"]) == (1, 1, 0)


def test_run_program_installs_load_before_faults():
    cluster = Cluster(ClusterSpec(
        n_nodes=4, node=NodeSpec(speed=1e8),
        network=NetworkSpec(latency=75e-6, bandwidth=12.5e6,
                            cpu_per_byte=0.01, cpu_per_msg=50.0),
    ))
    load = LoadScript(
        time_triggers=[TimeTrigger(time=0.002, node=3, action="start")],
        cycle_triggers=[CycleTrigger(cycle=3, node=1, action="start", count=2)],
    )
    faults = FailureScript(
        time_faults=[TimeFault(time=0.002, node=3, action="slowdown",
                               duration=0.001)],
        cycle_faults=[CycleFault(cycle=3, node=2, action="slowdown", count=2)],
    )
    spec = RuntimeSpec(grace_period=2, post_redist_period=3,
                       allow_removal=False, daemon_interval=0.002)
    result = run_program(cluster, jacobi_program,
                         JacobiConfig(n=32, iters=12, seed=7), spec=spec,
                         load_script=load, failure_script=faults)
    assert cluster.scripts == [load, faults]
    assert cluster.sim.now == 5_747_210
    assert cluster.sim.n_events == 1_783
    assert [(ev.kind, ev.cycle) for ev in result.events] == [
        ("redistribute", 5), ("redistribute", 7), ("redistribute", 9)]
    assert result.n_drops == 0
