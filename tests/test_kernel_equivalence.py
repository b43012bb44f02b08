"""Property suite: ``Simulator`` is observationally identical to the
reference loop (``tests/oracles/kernel_reference.py``).

The kernel's determinism contract: same ``(time, seq)`` total order,
same event count, byte-identical dynscope exports — for whole
scenarios, not just kernel microtests.  Each test here runs a scenario
once on each and compares the full export text with ``==``
(no approx): Jacobi removal, CG under load, and a crash-recovery run,
plus the removal scenario under schedule perturbation and with the
communication sanitizer attached.
"""

import contextlib

import numpy as np
import pytest

from repro.apps import CGConfig, cg_program, run_program
from repro.config import (
    ClusterSpec, NetworkSpec, NodeSpec, ResilienceSpec, RuntimeSpec,
)
from repro.core import AccessMode, DynMPIJob, NearestNeighbor
from repro.obs.export import chrome_json, jsonl_text
from repro.obs.scenario import RemovalScenario, run_removal
from repro.resilience import node_crash
from repro.simcluster import Cluster
from tests.oracles.kernel_reference import ReferenceSimulator, reference_engine

#: run a scenario on the kernel, then on the oracle
ENGINES = (contextlib.nullcontext, reference_engine)

# smoke-sized removal: every instrumented path (grace mode, halo
# traffic, redistribution, the drop decision) in a couple of seconds
SCENARIO = RemovalScenario(n_nodes=4, n=96, iters=14, load_cycle=4)


def removal_export(engine, monkeypatch, perturb=None, sanitize=False):
    if perturb is None:
        monkeypatch.delenv("DYNMPI_PERTURB", raising=False)
    else:
        monkeypatch.setenv("DYNMPI_PERTURB", str(perturb))
    if sanitize:
        monkeypatch.setenv("DYNMPI_SANITIZE", "1")
    else:
        monkeypatch.delenv("DYNMPI_SANITIZE", raising=False)
    with engine():
        _, cluster = run_removal(SCENARIO, observe=True)
    assert isinstance(cluster.sim, ReferenceSimulator) == (engine is reference_engine)
    return (jsonl_text(cluster.obs), chrome_json(cluster.obs),
            cluster.sim.n_events, cluster.sim.now)


def test_removal_scenario_byte_identical(monkeypatch):
    cal, ref = (removal_export(e, monkeypatch) for e in ENGINES)
    assert cal[2] == ref[2]  # n_events
    assert cal[3] == ref[3]  # final simulated time, exact
    assert cal[0] == ref[0]  # dynscope JSONL, byte for byte
    assert cal[1] == ref[1]  # chrome trace


@pytest.mark.parametrize("perturb", [1, 2])
def test_removal_equivalence_under_perturbation(monkeypatch, perturb):
    # the perturbed schedules differ from the unperturbed one, but the
    # kernel and the oracle must perturb identically for the same seed
    cal, ref = (removal_export(e, monkeypatch, perturb=perturb) for e in ENGINES)
    assert cal[2] == ref[2]
    assert cal[0] == ref[0]


def test_removal_equivalence_with_sanitizer(monkeypatch):
    cal, ref = (removal_export(e, monkeypatch, sanitize=True) for e in ENGINES)
    assert cal[2] == ref[2]
    assert cal[0] == ref[0]


def _cg_cluster():
    return Cluster(ClusterSpec(
        n_nodes=4,
        node=NodeSpec(speed=1e8),
        network=NetworkSpec(latency=75e-6, bandwidth=12.5e6,
                            cpu_per_byte=0.4, cpu_per_msg=3000.0),
        observe=True,
    ))


def test_cg_run_byte_identical():
    outs = []
    for engine in ENGINES:
        with engine():
            cluster = _cg_cluster()
        res = run_program(
            cluster, cg_program, CGConfig(n=48, iters=6), adaptive=True,
            spec=RuntimeSpec(grace_period=2, post_redist_period=3,
                             allow_removal=False, daemon_interval=0.002),
        )
        outs.append((jsonl_text(cluster.obs), cluster.sim.n_events,
                     cluster.sim.now, res.wall_time, res.bounds))
    cal, ref = outs
    assert cal[1] == ref[1]
    assert cal[2] == ref[2]
    assert cal[0] == ref[0]
    assert cal[3] == ref[3]
    assert cal[4] == ref[4]


SPEED = 1e8
N_ROWS = 64
ROW_WORK = SPEED * 0.04 / (N_ROWS // 4)


def _crash_program(ctx, n_cycles, row_work):
    A = ctx.register_dense("A", (N_ROWS, 8))
    ctx.init_phase(1, N_ROWS, NearestNeighbor(row_nbytes=64))
    ctx.add_array_access(1, "A", AccessMode.READWRITE, lo_off=-1, hi_off=1)
    ctx.commit()
    s, e = ctx.my_bounds()
    for g in range(s, e + 1):
        A.row(g)[:] = g

    def work_of(s, e):
        return np.full(e - s + 1, row_work)

    for _t in range(n_cycles):
        yield from ctx.begin_cycle()
        if ctx.participating():
            yield from ctx.compute(1, work_of)
        yield from ctx.end_cycle()
    return ctx.my_bounds()


def test_crash_recovery_byte_identical():
    # a node crash mid-run: detection, buddy-checkpoint replay and the
    # involuntary removal must replay identically on the oracle
    outs = []
    for engine in ENGINES:
        with engine():
            cluster = Cluster(ClusterSpec(
                n_nodes=4,
                node=NodeSpec(speed=SPEED),
                network=NetworkSpec(latency=75e-6, bandwidth=12.5e6,
                                    cpu_per_byte=0.4, cpu_per_msg=3000.0),
                observe=True,
            ))
        cluster.install_script(node_crash(2, at_cycle=10))
        job = DynMPIJob(cluster, RuntimeSpec(
            grace_period=2, post_redist_period=3, allow_removal=True,
            drop_mode="physical", allow_rejoin=True, daemon_interval=0.01,
            resilience=ResilienceSpec(heartbeat_timeout=0.055),
        ))
        results = job.launch(_crash_program, args=(20, ROW_WORK))
        outs.append((jsonl_text(cluster.obs), cluster.sim.n_events,
                     cluster.sim.now, results))
    cal, ref = outs
    assert cal[1] == ref[1]
    assert cal[2] == ref[2]
    assert cal[0] == ref[0]
    assert cal[3] == ref[3]
