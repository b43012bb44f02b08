"""Property-based tests over the full runtime: for arbitrary competing
load scripts, the system must preserve its core invariants — rows
always tile the loop space, array contents survive any number of
redistributions, and all ranks agree on the distribution."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ClusterSpec, NetworkSpec, NodeSpec, RuntimeSpec
from repro.core import AccessMode, DynMPIJob, NearestNeighbor
from repro.simcluster import Cluster, CycleTrigger, LoadScript

SPEED = 1e8
N_ROWS = 48
N_CYCLES = 40


def make_cluster(n):
    return Cluster(ClusterSpec(
        n_nodes=n,
        node=NodeSpec(speed=SPEED),
        network=NetworkSpec(latency=75e-6, bandwidth=12.5e6,
                            cpu_per_byte=0.01, cpu_per_msg=50.0),
    ))


def program(ctx, row_work):
    A = ctx.register_dense("A", (N_ROWS, 4))
    ctx.init_phase(1, N_ROWS, NearestNeighbor(row_nbytes=32))
    ctx.add_array_access(1, "A", AccessMode.READWRITE, lo_off=-1, hi_off=1)
    ctx.commit()
    s, e = ctx.my_bounds()
    for g in range(s, e + 1):
        A.row(g)[:] = g

    def work_of(s, e):
        return np.full(e - s + 1, row_work)

    for _t in range(N_CYCLES):
        yield from ctx.begin_cycle()
        if ctx.participating():
            yield from ctx.compute(1, work_of)
        yield from ctx.end_cycle()

    result = {"bounds": ctx.my_bounds(), "ok": True}
    if ctx.participating():
        s, e = ctx.my_bounds()
        for g in range(s, e + 1):
            if not np.all(A.row(g) == g):
                result["ok"] = False
    return result


@st.composite
def load_scripts(draw):
    # events in cycle order, so ``live`` is what runs on the node when
    # the trigger fires and a stop can clear a node that was dropped
    cycles = sorted(draw(st.lists(st.integers(1, N_CYCLES - 5), max_size=4)))
    triggers = []
    live = {}  # node -> count running
    for cycle in cycles:
        loaded = sorted(node for node, count in live.items() if count > 0)
        if loaded and draw(st.booleans()):
            node = draw(st.sampled_from(loaded))
            # one competitor leaves, or all of them (the node clears)
            count = draw(st.sampled_from(sorted({1, live[node]})))
            triggers.append(CycleTrigger(cycle=cycle, node=node,
                                         action="stop", count=count))
            live[node] -= count
        else:
            node = draw(st.integers(0, 3))
            # up to 8 competitors: heavy enough that drops, and with
            # allow_rejoin rejoins, actually occur
            count = draw(st.integers(1, 8))
            triggers.append(CycleTrigger(cycle=cycle, node=node,
                                         action="start", count=count))
            live[node] = live.get(node, 0) + count
    return LoadScript(cycle_triggers=triggers)


@given(
    script=load_scripts(),
    n_nodes=st.integers(2, 4),
    removal=st.booleans(),
    rejoin=st.booleans(),
)
@settings(max_examples=50, deadline=None)
def test_runtime_invariants_under_arbitrary_load(script, n_nodes, removal,
                                                 rejoin):
    cluster = make_cluster(n_nodes)
    # clamp trigger nodes into this cluster (the strategy draws 0..3)
    script = LoadScript(cycle_triggers=[
        CycleTrigger(cycle=t.cycle, node=t.node % n_nodes,
                     action=t.action, count=t.count)
        for t in script.cycle_triggers
    ])
    cluster.install_script(script)
    job = DynMPIJob(cluster, RuntimeSpec(
        grace_period=2, post_redist_period=3,
        allow_removal=removal, allow_rejoin=rejoin, daemon_interval=0.002,
    ))
    results = job.launch(program, args=(SPEED * 1e-3 / N_ROWS * n_nodes,))

    # 1. the owned ranges of participating ranks tile the loop space
    owned = [out["bounds"] for out in results if out["bounds"][1] >= out["bounds"][0]]
    owned.sort()
    total = sum(e - s + 1 for s, e in owned)
    assert total == N_ROWS
    for (s1, e1), (s2, e2) in zip(owned, owned[1:]):
        assert s2 == e1 + 1  # contiguous, no overlap

    # 2. every row still carries its stamped value
    assert all(out["ok"] for out in results)

    # 3. events are well-formed
    for ev in job.events:
        assert ev.kind in ("redistribute", "drop", "logical_drop", "rejoin")
        if ev.kind == "redistribute":
            shares = np.asarray(ev.detail["shares"])
            assert shares.sum() == np.float64(1.0) or abs(shares.sum() - 1) < 1e-9
            assert np.all(shares >= 0)


@given(seed=st.integers(0, 2**16))
@settings(max_examples=10, deadline=None)
def test_simulation_determinism_same_seed(seed):
    """Two identical runs produce bit-identical timing and events."""
    def run():
        cluster = Cluster(ClusterSpec(
            n_nodes=3,
            node=NodeSpec(speed=SPEED),
            network=NetworkSpec(latency=75e-6, bandwidth=12.5e6),
            seed=seed,
        ))
        cluster.install_script(LoadScript(cycle_triggers=[
            CycleTrigger(cycle=5, node=1, action="start"),
        ]))
        job = DynMPIJob(cluster, RuntimeSpec(
            grace_period=2, post_redist_period=3, allow_removal=False,
            daemon_interval=0.002,
        ))
        job.launch(program, args=(SPEED * 1e-3 / N_ROWS * 3,))
        return cluster.sim.now, [(ev.kind, ev.cycle) for ev in job.events]

    t1, ev1 = run()
    t2, ev2 = run()
    assert t1 == t2
    assert ev1 == ev2
