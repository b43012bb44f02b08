"""Tests for load scripts and named RNG streams."""

import numpy as np
import pytest

from repro.config import ClusterSpec, NodeSpec
from repro.errors import ConfigError
from repro.obs import CPU_TID
from repro.simcluster import (
    Cluster,
    CycleTrigger,
    LoadScript,
    TimeTrigger,
    single_competitor,
    to_ns,
    to_s,
)
from repro.simcluster.rng import StreamRegistry


def make_cluster(n=2, observe=None):
    return Cluster(ClusterSpec(n_nodes=n, node=NodeSpec(speed=1e8),
                               observe=observe))


# ----------------------------------------------------------------------
# load scripts
# ----------------------------------------------------------------------
def test_time_trigger_starts_and_stops():
    cluster = make_cluster()
    script = LoadScript(time_triggers=[
        TimeTrigger(time=1.0, node=0, action="start", count=2),
        TimeTrigger(time=3.0, node=0, action="stop", count=1),
    ])
    cluster.install_load_script(script)
    counts = []
    cluster.sim.schedule(to_ns(0.5), lambda: counts.append(cluster.nodes[0].n_competing))
    cluster.sim.schedule(to_ns(1.5), lambda: counts.append(cluster.nodes[0].n_competing))
    cluster.sim.schedule(to_ns(3.5), lambda: counts.append(cluster.nodes[0].n_competing))
    cluster.sim.run(until=to_ns(4.0))
    assert counts == [0, 2, 1]


def test_cycle_trigger_fires_once_per_cycle():
    cluster = make_cluster()
    script = single_competitor(1, start_cycle=3, stop_cycle=6)
    cluster.install_load_script(script)
    cluster.notify_cycle(0)
    cluster.notify_cycle(3)
    assert cluster.nodes[1].n_competing == 1
    cluster.notify_cycle(3)  # repeated notification must not double-fire
    assert cluster.nodes[1].n_competing == 1
    cluster.notify_cycle(6)
    assert cluster.nodes[1].n_competing == 0


def test_stop_more_than_started_is_clamped():
    cluster = make_cluster()
    script = LoadScript(cycle_triggers=[
        CycleTrigger(cycle=1, node=0, action="start", count=1),
        CycleTrigger(cycle=2, node=0, action="stop", count=5),
    ])
    cluster.install_load_script(script)
    cluster.notify_cycle(1)
    cluster.notify_cycle(2)
    assert cluster.nodes[0].n_competing == 0


def test_trigger_validation():
    with pytest.raises(ConfigError):
        TimeTrigger(time=-1, node=0, action="start")
    with pytest.raises(ConfigError):
        TimeTrigger(time=0, node=0, action="restart")
    with pytest.raises(ConfigError):
        CycleTrigger(cycle=-1, node=0, action="start")
    with pytest.raises(ConfigError):
        CycleTrigger(cycle=0, node=0, action="start", count=0)


def test_uninstalled_script_rejects_cycles():
    script = single_competitor(0, start_cycle=0)
    with pytest.raises(ConfigError):
        script.on_cycle(0)


def test_recorder_marks_events():
    cluster = make_cluster(observe=True)
    cluster.install_load_script(single_competitor(0, start_cycle=2))
    cluster.notify_cycle(2)
    (mark,) = cluster.obs.events
    assert (mark.name, mark.ph, mark.pid, mark.tid) == ("load.start", "i", 0, CPU_TID)
    assert mark.ts == to_s(cluster.sim.now) and mark.args == {"count": 1}
    # an unobserved cluster runs the same script and records nowhere
    quiet = make_cluster(observe=False)
    quiet.install_load_script(single_competitor(0, start_cycle=2))
    quiet.notify_cycle(2)
    assert quiet.obs is None and quiet.nodes[0].n_competing == 1


# ----------------------------------------------------------------------
# rng streams
# ----------------------------------------------------------------------
def test_streams_are_deterministic_per_name():
    r1 = StreamRegistry(seed=42)
    r2 = StreamRegistry(seed=42)
    a = r1.stream("cpu0").random(5)
    b = r2.stream("cpu0").random(5)
    assert np.array_equal(a, b)


def test_streams_independent_of_creation_order():
    r1 = StreamRegistry(seed=1)
    r2 = StreamRegistry(seed=1)
    _ = r1.stream("first")
    a = r1.stream("second").random(3)
    b = r2.stream("second").random(3)  # created first here
    assert np.array_equal(a, b)


def test_different_names_and_seeds_differ():
    r = StreamRegistry(seed=7)
    a = r.stream("a").random(4)
    b = r.stream("b").random(4)
    assert not np.array_equal(a, b)
    other = StreamRegistry(seed=8).stream("a").random(4)
    assert not np.array_equal(a, other)


def test_stream_persists_state():
    r = StreamRegistry(seed=0)
    s = r.stream("x")
    first = s.random()
    again = r.stream("x").random()  # same generator object, advanced
    assert first != again
    assert "x" in r
