"""Unit tests for the switched-Ethernet network model."""

import pytest

from repro.config import NetworkSpec
from repro.errors import ConfigError, SimulationError
from repro.simcluster import Simulator
from repro.simcluster.network import Network


def make_net(n=4, latency=1e-4, bandwidth=1e6, **kw):
    sim = Simulator()
    net = Network(sim, NetworkSpec(latency=latency, bandwidth=bandwidth, **kw), n)
    return sim, net


def test_uncontended_delivery_time():
    sim, net = make_net()
    got = []
    t = net.transmit(0, 1, 1000, lambda: got.append(sim.now))
    # cut-through: latency + nbytes/bandwidth
    assert t == pytest.approx(1e-4 + 1e-3)
    sim.run()
    assert got == [pytest.approx(t)]


def test_sender_link_serializes_consecutive_sends():
    sim, net = make_net()
    t1 = net.transmit(0, 1, 10_000, lambda: None)
    t2 = net.transmit(0, 2, 10_000, lambda: None)
    # second message cannot start until the first left the NIC
    assert t2 == pytest.approx(t1 + 0.01)
    sim.run()


def test_receiver_link_serializes_concurrent_senders():
    sim, net = make_net()
    t1 = net.transmit(0, 2, 10_000, lambda: None)
    t2 = net.transmit(1, 2, 10_000, lambda: None)
    assert t2 == pytest.approx(t1 + 0.01)
    sim.run()


def test_disjoint_pairs_do_not_contend():
    sim, net = make_net()
    t1 = net.transmit(0, 1, 10_000, lambda: None)
    t2 = net.transmit(2, 3, 10_000, lambda: None)
    assert t1 == pytest.approx(t2)
    sim.run()


def test_local_delivery_is_fast():
    sim, net = make_net()
    t = net.transmit(1, 1, 1_000_000, lambda: None)
    remote = 1e-4 + 1.0  # what a remote 1 MB transfer would cost
    assert t < remote / 10
    sim.run()


def test_zero_byte_message():
    sim, net = make_net()
    t = net.transmit(0, 1, 0, lambda: None)
    assert t == pytest.approx(1e-4)
    sim.run()


def test_counters_accumulate():
    sim, net = make_net()
    net.transmit(0, 1, 100, lambda: None)
    net.transmit(1, 0, 200, lambda: None)
    assert net.n_messages == 2
    assert net.n_bytes == 300
    sim.run()


def test_invalid_endpoints_rejected():
    sim, net = make_net(n=2)
    with pytest.raises(SimulationError):
        net.transmit(0, 5, 10, lambda: None)
    with pytest.raises(SimulationError):
        net.transmit(-1, 0, 10, lambda: None)
    with pytest.raises(SimulationError):
        net.transmit(0, 1, -5, lambda: None)


def test_cpu_cost_formula():
    sim, net = make_net(cpu_per_msg=500.0, cpu_per_byte=0.25)
    assert net.cpu_cost(1000) == pytest.approx(500 + 250)
    assert net.wire_time(1000) == pytest.approx(1e-4 + 1e-3)


def test_spec_validation():
    with pytest.raises(ConfigError):
        NetworkSpec(bandwidth=0)
    with pytest.raises(ConfigError):
        NetworkSpec(latency=-1)
    with pytest.raises(ConfigError):
        NetworkSpec(cpu_per_byte=-0.1)
    with pytest.raises(ConfigError):
        NetworkSpec(eager_threshold=-1)
    with pytest.raises(ConfigError):
        NetworkSpec(recv_mode="psychic")


# -- dynkern: partitions and heal ---------------------------


def test_partition_holds_and_heal_reinjects():
    sim, net = make_net()
    got = []
    net.partition({1})
    t = net.transmit(0, 1, 1000, lambda: got.append(sim.now))
    assert t == float("inf")
    assert net.partitioned and net.n_held == 1
    sim.run()
    assert got == []  # held, not delivered, not dropped
    net.heal()
    assert not net.partitioned and net.n_held == 0
    sim.run()
    assert len(got) == 1


def test_heal_counts_each_message_once():
    # the count-once contract: a message held across a partition was
    # already counted at submission; heal() must not recount it
    sim, net = make_net()
    net.partition({1})
    for _ in range(5):
        net.transmit(0, 1, 100, lambda: None)
    assert (net.n_messages, net.n_bytes) == (5, 500)
    net.heal()
    assert (net.n_messages, net.n_bytes) == (5, 500)
    sim.run()
    assert (net.n_messages, net.n_bytes) == (5, 500)


def test_partition_inside_island_still_flows():
    sim, net = make_net()
    got = []
    net.partition({2, 3})
    net.transmit(2, 3, 100, lambda: got.append("island"))
    net.transmit(0, 1, 100, lambda: got.append("mainland"))
    sim.run()
    assert sorted(got) == ["island", "mainland"]
    assert net.n_held == 0
