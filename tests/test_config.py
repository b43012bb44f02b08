"""Validation tests for the configuration dataclasses and cluster
presets."""

import pytest

from repro.apps import CGConfig, JacobiConfig, ParticleConfig, SORConfig
from repro.config import (
    ClusterSpec,
    NetworkSpec,
    NodeSpec,
    ResilienceSpec,
    RuntimeSpec,
    pentium_cluster,
    ultrasparc_cluster,
)
from repro.errors import ConfigError


def test_node_spec_defaults_valid():
    spec = NodeSpec()
    assert spec.speed > 0
    assert spec.quantum == 0.010


@pytest.mark.parametrize("kwargs", [
    {"speed": 0},
    {"speed": -1e8},
    {"quantum": 0},
])
def test_node_spec_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        NodeSpec(**kwargs)


def test_cluster_spec_needs_a_node():
    with pytest.raises(ConfigError):
        ClusterSpec(n_nodes=0)
    spec = ClusterSpec(n_nodes=2)
    assert spec.with_nodes(5).n_nodes == 5
    assert spec.with_nodes(5).node == spec.node


@pytest.mark.parametrize("kwargs", [
    {"grace_period": 0},
    {"post_redist_period": 0},
    {"daemon_interval": 0},
    {"daemon_interval": -1.0},
    {"drop_mode": "virtual"},
    {"drop_margin": 0},
])
def test_runtime_spec_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        RuntimeSpec(**kwargs)


@pytest.mark.parametrize("cls, kwargs", [
    (JacobiConfig, {"n": 0}),
    (JacobiConfig, {"iters": -1}),
    (SORConfig, {"n": -4}),
    (SORConfig, {"iters": -1}),
    (CGConfig, {"n": 0}),
    (CGConfig, {"iters": -1}),
    (CGConfig, {"nnz_target": 0}),
    (ParticleConfig, {"rows": 0}),
    (ParticleConfig, {"cols": 0}),
    (ParticleConfig, {"steps": -1}),
    (ParticleConfig, {"base_density": -1.5}),
    (ParticleConfig, {"hot_factor": -2.0}),
    (ParticleConfig, {"hot_rows": -1}),
    (ParticleConfig, {"part_top": -0.5}),
    (ParticleConfig, {"n_nodes_hint": 0}),
])
def test_app_configs_reject_meaningless_values(cls, kwargs):
    (field, value), = kwargs.items()
    with pytest.raises(ConfigError, match=rf"{cls.__name__}\.{field} .* got {value}"):
        cls(**kwargs)


NAN = float("nan")


@pytest.mark.parametrize("cls, field", [
    (NodeSpec, "speed"),
    (NodeSpec, "quantum"),
    (NetworkSpec, "latency"),
    (NetworkSpec, "bandwidth"),
    (NetworkSpec, "cpu_per_byte"),
    (NetworkSpec, "cpu_per_msg"),
    (NetworkSpec, "eager_threshold"),
    (RuntimeSpec, "grace_period"),
    (RuntimeSpec, "post_redist_period"),
    (RuntimeSpec, "daemon_interval"),
    (RuntimeSpec, "drop_margin"),
    (ResilienceSpec, "checkpoint_interval"),
    (ResilienceSpec, "replication"),
    (ResilienceSpec, "heartbeat_timeout"),
    (JacobiConfig, "n"),
    (JacobiConfig, "iters"),
    (SORConfig, "n"),
    (SORConfig, "iters"),
    (CGConfig, "n"),
    (CGConfig, "iters"),
    (CGConfig, "nnz_target"),
    (ParticleConfig, "rows"),
    (ParticleConfig, "cols"),
    (ParticleConfig, "steps"),
    (ParticleConfig, "base_density"),
    (ParticleConfig, "hot_factor"),
    (ParticleConfig, "hot_rows"),
    (ParticleConfig, "part_top"),
    (ParticleConfig, "n_nodes_hint"),
])
def test_nan_is_rejected_at_construction_naming_the_field(cls, field):
    """NaN fails every comparison, so a check written ``x <= 0`` lets it
    through; each bound is written so that NaN fails it instead."""
    with pytest.raises(ConfigError, match=field):
        cls(**{field: NAN})


def test_app_configs_accept_zero_cycles_and_empty_hot_region():
    assert JacobiConfig(n=1, iters=0).iters == 0
    assert ParticleConfig(rows=1, cols=1, steps=0, base_density=0.0,
                          hot_rows=0).steps == 0
    assert CGConfig(n=1, nnz_target=1).nnz_target == 1


def test_runtime_spec_has_no_distribution_option():
    # the field was validated against ("block", "cyclic") and then read
    # by nothing: distribution="cyclic" silently ran the block layout
    with pytest.raises(TypeError):
        RuntimeSpec(distribution="cyclic")


def test_runtime_spec_paper_defaults():
    spec = RuntimeSpec()
    assert spec.grace_period == 5          # paper Section 4.2
    assert spec.post_redist_period == 10   # paper Section 4.4
    assert spec.daemon_interval == 1.0     # dmpi_ps updates every second
    assert spec.proc_granularity == 0.010  # /PROC granularity
    assert spec.hrtimer_threshold == 0.010
    assert spec.drop_mode == "physical"
    assert spec.allow_removal
    assert not spec.allow_rejoin
    assert not spec.partial_removal


def test_pentium_preset():
    spec = pentium_cluster(8, seed=3)
    assert spec.n_nodes == 8
    assert spec.seed == 3
    assert spec.name == "pentium"
    assert spec.network.bandwidth == pytest.approx(12.5e6)  # 100 Mb/s
    assert spec.network.recv_mode == "blocking"


def test_ultrasparc_preset_polls():
    spec = ultrasparc_cluster(16)
    assert spec.name == "ultrasparc"
    assert spec.network.recv_mode == "polling"
    assert spec.node.speed < pentium_cluster(1).node.speed


def test_specs_are_frozen():
    spec = NodeSpec()
    with pytest.raises(Exception):
        spec.speed = 1.0
