"""Combo parameters -> executable simulator scenario.

The campaign's scenario vocabulary is deliberately compact so that a
full parameter assignment fits into a slug and a repro command line:

=============  ==========================================================
param          meaning (default)
=============  ==========================================================
``app``        ``jacobi`` | ``sor`` | ``cg`` | ``particle`` | ``farm``
               (jacobi)
``n_nodes``    cluster size (4)
``size``       linear problem dimension (24)
``cycles``     phase cycles / iterations (8)
``load``       load-script DSL, see below (``none``)
``failure``    failure-script DSL, see below (``none``)
``seed``       cluster + app seed (0)
``sanitize``   0/1 — force the PR-1 runtime sanitizer on (0)
``observe``    0/1 — record a dynscope trace (0)
``perturb``    0 = off, else a PR-6 schedule-perturbation seed (0)
``check``      0/1 — verify the run against its sequential
               reference oracle (1)
``policy``     farm only: loop-scheduling policy, one of
               :data:`repro.farm.POLICIES` (self)
``n_jobs``     farm only: jobs in the farm (200)
``skew``       farm only: job-cost profile,
               ``uniform`` | ``linear`` | ``hot`` (hot)
``chunk``      farm only: fixed chunk size for self/rma dispatch (8)
=============  ==========================================================

The ``farm`` app reuses the trigger DSL unchanged, with two extra
rules: the master lives on node 0, so faults and load targeting node 0
are rejected (the farm tolerates worker churn, not master loss), and a
``crash`` fault is lowered to a fail-stop ``kill`` of the node's
worker process — the farm requeues its in-flight jobs instead of going
through the buddy-checkpoint recovery recipe.

Load DSL — ``+``-separated triggers, each
``n<node>@c<cycle>[x<count>][-c<stop_cycle>]``:

* ``n0@c3``      one competing process on node 0 at cycle 3
* ``n1@c2x3``    three competitors on node 1 at cycle 2
* ``n0@c3x2-c6`` two competitors on node 0 at cycle 3, gone at cycle 6

Failure DSL — ``+``-separated faults, each
``<kind>:n<node>@c<cycle>[x<count>]`` with kind ``slow`` (a
competing-load burst that persists; faults take no ``-c`` stop) or
``crash`` (fail-stop node crash, recovered from buddy checkpoints).
A ``crash`` switches the runtime to the resilience recipe (checkpoint
interval 1, tight heartbeat), the regime PR 2 proved bitwise-exact
for the evaluated apps.

Everything here but :meth:`BuiltScenario.run` is pure construction —
no multiprocessing, no I/O — so :func:`build_scenario` is equally
usable from the worker pool, the fuzzer, and unit tests.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from ..apps import (
    CGConfig,
    JacobiConfig,
    ParticleConfig,
    SORConfig,
    cg_program,
    initial_counts,
    jacobi_program,
    particle_program,
    run_program,
    sor_program,
)
from ..apps import jacobi as jacobi_mod
from ..apps import sor as sor_mod
from ..farm import FarmSpec, farm_oracle, run_farm
from ..apps.reference import (
    cg_matrix_dense,
    cg_reference,
    jacobi_reference,
    particle_reference,
    sor_reference,
)
from ..config import (
    ClusterSpec,
    NetworkSpec,
    NodeSpec,
    ResilienceSpec,
    RuntimeSpec,
)
from ..errors import ConfigError
from ..resilience import CycleFault, FailureScript
from ..simcluster import Cluster, CycleTrigger, LoadScript

__all__ = [
    "APP_NAMES",
    "SCENARIO_DEFAULTS",
    "BuiltScenario",
    "build_scenario",
    "parse_failure",
    "parse_load",
    "resolve_params",
]

APP_NAMES = ("jacobi", "sor", "cg", "particle", "farm")

SCENARIO_DEFAULTS = {
    "app": "jacobi",
    "n_nodes": 4,
    "size": 24,
    "cycles": 8,
    "load": "none",
    "failure": "none",
    "seed": 0,
    "sanitize": 0,
    "observe": 0,
    "perturb": 0,
    "check": 1,
    # farm-only axes (ignored by the grid apps)
    "policy": "self",
    "n_jobs": 200,
    "skew": "hot",
    "chunk": 8,
}

_TRIGGER_RE = re.compile(
    r"^n(?P<node>\d+)@c(?P<cycle>\d+)(?:x(?P<count>\d+))?"
    r"(?:-c(?P<stop>\d+))?$"
)


def _parse_trigger(text: str) -> tuple[int, int, int, Optional[int]]:
    m = _TRIGGER_RE.match(text)
    if m is None:
        raise ConfigError(
            f"bad trigger {text!r} (want n<node>@c<cycle>[x<count>][-c<stop>])"
        )
    stop = m.group("stop")
    return (
        int(m.group("node")),
        int(m.group("cycle")),
        int(m.group("count") or 1),
        None if stop is None else int(stop),
    )


def _parse_parts(spec: str, parse_part: Callable) -> list:
    """The triggers ``parse_part`` makes of each ``+``-separated part
    of ``spec`` (none for ``"none"``/empty)."""
    if not spec or spec == "none":
        return []
    return [trig for part in spec.split("+") for trig in parse_part(part)]


def _load_part(part: str) -> list:
    node, cycle, count, stop = _parse_trigger(part)
    triggers = [CycleTrigger(cycle=cycle, node=node, action="start", count=count)]
    if stop is not None:
        triggers.append(
            CycleTrigger(cycle=stop, node=node, action="stop", count=count)
        )
    return triggers


def _failure_part(part: str) -> list:
    kind, _, trigger = part.partition(":")
    if kind not in ("slow", "crash"):
        raise ConfigError(
            f"bad fault kind {kind!r} in {part!r} (want slow|crash)"
        )
    node, cycle, count, stop = _parse_trigger(trigger)
    if stop is not None:
        raise ConfigError(
            f"fault {part!r}: stop cycles are a load-script notion; "
            f"faults are point events (slowdowns persist)"
        )
    if kind == "crash":
        return [CycleFault(cycle=cycle, node=node, action="crash")]
    return [CycleFault(cycle=cycle, node=node, action="slowdown", count=count)]


def parse_load(spec: str) -> Optional[LoadScript]:
    """Parse the load DSL; ``"none"``/empty means no script."""
    triggers = _parse_parts(spec, _load_part)
    return LoadScript(cycle_triggers=triggers) if triggers else None


def parse_failure(spec: str) -> Optional[FailureScript]:
    """Parse the failure DSL; ``"none"``/empty means no script."""
    faults = _parse_parts(spec, _failure_part)
    return FailureScript(cycle_faults=faults) if faults else None


def has_crash(spec: str) -> bool:
    return bool(spec) and spec != "none" and "crash:" in spec


def resolve_params(params: dict) -> dict:
    """Fill defaults and validate types; returns a complete assignment."""
    full = dict(SCENARIO_DEFAULTS)
    unknown = set(params) - set(full)
    if unknown:
        raise ConfigError(f"unknown scenario parameters: {sorted(unknown)}")
    full.update(params)
    full["app"] = str(full["app"])
    for key in ("n_nodes", "size", "cycles", "seed",
                "sanitize", "observe", "perturb", "check",
                "n_jobs", "chunk"):
        full[key] = int(full[key])
    full["policy"] = str(full["policy"])
    full["skew"] = str(full["skew"])
    if full["app"] not in APP_NAMES:
        raise ConfigError(
            f"unknown app {full['app']!r} (one of {APP_NAMES})"
        )
    if full["n_nodes"] < 1:
        raise ConfigError("n_nodes must be >= 1")
    if full["size"] < 8 or full["cycles"] < 1:
        raise ConfigError("size must be >= 8 and cycles >= 1")
    if full["app"] == "farm":
        if full["n_nodes"] < 2:
            raise ConfigError("the farm needs n_nodes >= 2 (master + worker)")
        _reject_master_node(full)
    return full


def _reject_master_node(full: dict) -> None:
    """The farm master is rank 0 on node 0: churn there is not worker
    elasticity but master loss, which the farm (by design) does not
    survive — reject it at scenario-construction time."""
    for kind, parse_part in (("load", _load_part), ("failure", _failure_part)):
        if any(t.node == 0 for t in _parse_parts(full[kind], parse_part)):
            raise ConfigError(
                f"farm scenarios cannot target node 0 ({kind} "
                f"{full[kind]!r}): node 0 hosts the master"
            )


@dataclass
class BuiltScenario:
    """Everything run_combo needs to execute one combo."""

    cluster_spec: ClusterSpec
    program: Callable
    cfg: object
    spec: RuntimeSpec
    load_script: Optional[LoadScript]
    failure_script: Optional[FailureScript]
    #: sequential-reference check: (the run's result) -> error string or ""
    oracle: Optional[Callable]
    #: set for ``app=farm``: the combo runs through
    #: :func:`repro.farm.run_farm` instead of ``run_program``
    farm_spec: Optional[FarmSpec] = None

    def run(self):
        """Run on a fresh cluster; the launcher installs the scripts.
        Returns the :class:`~repro.apps.AppResult` (the
        :class:`~repro.farm.FarmResult` for ``app=farm``)."""
        cluster = Cluster(self.cluster_spec)
        scripts = dict(load_script=self.load_script,
                       failure_script=self.failure_script)
        if self.farm_spec is not None:
            return run_farm(cluster, self.farm_spec, **scripts)
        return run_program(cluster, self.program, self.cfg, spec=self.spec,
                           adaptive=True, **scripts)


def _app_setup(full: dict, check: bool):
    """(program, cfg, oracle) for the resolved assignment."""
    app, size, cycles = full["app"], full["size"], full["cycles"]
    seed = full["seed"]
    if app == "jacobi":
        cfg = JacobiConfig(n=size, iters=cycles, materialized=check,
                           collect=check, seed=7 + seed)
        oracle = _grid_oracle(
            lambda: jacobi_reference(jacobi_mod.initial_grid(cfg), cfg.iters)
        ) if check else None
        return jacobi_program, cfg, oracle
    if app == "sor":
        cfg = SORConfig(n=size, iters=cycles, materialized=check,
                        collect=check, seed=11 + seed)
        oracle = _grid_oracle(
            lambda: sor_reference(sor_mod.initial_grid(cfg), cfg.iters,
                                  cfg.omega)
        ) if check else None
        return sor_program, cfg, oracle
    if app == "cg":
        # CG rows want ~12 nonzeros; keep n comfortably above that.
        # exact_math follows check: virtual math is enough for timing
        cfg = CGConfig(n=max(size, 24), iters=cycles, seed=1234 + seed,
                       exact_math=check)
        oracle = _cg_oracle(cfg) if check else None
        return cg_program, cfg, oracle
    # particle
    cfg = ParticleConfig(rows=size, cols=8, steps=cycles,
                         hot_rows=size // 4, hot_factor=2.0,
                         collect=check, seed=7 + seed)
    oracle = _grid_oracle(
        lambda: particle_reference(initial_counts(cfg), cfg.steps, cfg.seed),
        exact=True,
    ) if check else None
    return particle_program, cfg, oracle


def _grid_oracle(reference: Callable, *, exact: bool = False) -> Callable:
    def check(result) -> str:
        expected = reference()
        checked = 0
        for rank, out in enumerate(result.per_rank):
            # a crashed rank returns None; a rank a drop parked returns
            # no grid (only participating ranks collect one)
            if out is None or "grid" not in out:
                continue
            checked += 1
            got = out["grid"]
            ok = (np.array_equal(got, expected) if exact
                  else np.allclose(got, expected, atol=1e-12))
            if not ok:
                worst = float(np.max(np.abs(np.asarray(got) - expected)))
                return (f"rank {rank} grid deviates from the sequential "
                        f"reference (max abs err {worst:.3e})")
        return "" if checked else "no rank returned a grid"
    return check


def _cg_oracle(cfg: CGConfig) -> Callable:
    def check(result) -> str:
        A = cg_matrix_dense(cfg.n, nnz_target=cfg.nnz_target, seed=cfg.seed)
        x_ref, _ = cg_reference(A, np.ones(cfg.n), cfg.iters)
        x = np.zeros(cfg.n)
        for out in result.per_rank:
            if out is None:
                continue
            for g, v in out["x_local"].items():
                x[g] = v
        if not np.allclose(x, x_ref, atol=1e-8):
            worst = float(np.max(np.abs(x - x_ref)))
            return (f"CG solution deviates from the sequential reference "
                    f"(max abs err {worst:.3e})")
        return ""
    return check


def _farm_scenario(full: dict, check: bool) -> BuiltScenario:
    """Scenario construction for ``app=farm``: no DynMPIJob, no
    resilience recipe — churn flows through the farm's own requeue
    machinery, so a ``crash`` fault is lowered to a fail-stop ``kill``
    of the node's worker."""
    farm = FarmSpec(
        n_jobs=full["n_jobs"], policy=full["policy"], chunk=full["chunk"],
        skew=full["skew"], seed=full["seed"], cycles=full["cycles"],
        name=f"farm-{full['policy']}",
    )
    farm.validate()
    faults = [replace(f, action="kill") if f.action == "crash" else f
              for f in _parse_parts(full["failure"], _failure_part)]
    cluster_spec = ClusterSpec(
        n_nodes=full["n_nodes"],
        node=NodeSpec(speed=1e8),
        network=NetworkSpec(latency=75e-6, bandwidth=12.5e6,
                            cpu_per_byte=0.01, cpu_per_msg=50.0),
        seed=full["seed"],
        name="campaign-farm",
        sanitize=True if full["sanitize"] else None,
        observe=True if full["observe"] else None,
        perturb=full["perturb"] or None,
    )
    return BuiltScenario(
        cluster_spec=cluster_spec,
        program=None,
        cfg=None,
        spec=RuntimeSpec(),
        load_script=parse_load(full["load"]),
        failure_script=FailureScript(cycle_faults=faults) if faults else None,
        oracle=farm_oracle(farm) if check else None,
        farm_spec=farm,
    )


def build_scenario(params: dict) -> BuiltScenario:
    """Construct the full scenario for a (possibly partial) assignment."""
    full = resolve_params(params)
    check = bool(full["check"])
    if full["app"] == "farm":
        return _farm_scenario(full, check)
    crash = has_crash(full["failure"])
    program, cfg, oracle = _app_setup(full, check)

    if crash:
        # the PR-2 recovery recipe (tests/test_resilience.py): default
        # Ethernet overheads give cycles long enough that the stale
        # heartbeat crosses its timeout a deterministic two cycles
        # after the crash
        network = NetworkSpec()
        spec = RuntimeSpec(
            grace_period=2, post_redist_period=3,
            allow_removal=True, allow_rejoin=True,
            daemon_interval=0.001,
            resilience=ResilienceSpec(checkpoint_interval=1,
                                      heartbeat_timeout=0.004),
        )
    else:
        # tiny problems need the comm/comp ratio kept realistic
        # (tests/test_apps.py) and a daemon far faster than 1 Hz
        network = NetworkSpec(latency=75e-6, bandwidth=12.5e6,
                              cpu_per_byte=0.01, cpu_per_msg=50.0)
        spec = RuntimeSpec(grace_period=2, post_redist_period=3,
                           allow_removal=False, daemon_interval=0.002)

    cluster_spec = ClusterSpec(
        n_nodes=full["n_nodes"],
        node=NodeSpec(speed=1e8),
        network=network,
        seed=full["seed"],
        name=f"campaign-{full['app']}",
        sanitize=True if full["sanitize"] else None,
        observe=True if full["observe"] else None,
        perturb=full["perturb"] or None,
    )
    return BuiltScenario(
        cluster_spec=cluster_spec,
        program=program,
        cfg=cfg,
        spec=spec,
        load_script=parse_load(full["load"]),
        failure_script=parse_failure(full["failure"]),
        oracle=oracle,
    )
