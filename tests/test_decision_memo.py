"""One decision per adaptation per job.

Every active rank reaches an adaptation with the same replicated view
and the same gathered data, so the runtime plans it once
(``DynMPI._decide``) and every member installs that one ``Transition``.
These tests count the planner calls of a real removal run, check that
the shared ``Transition`` cannot be written through, check that the
sanitizer verifies each row move once per job (not once per member),
and check that a replica whose gathered data diverged misses the memo
and is still caught by the sanitizer's lockstep check.
"""

import numpy as np
import pytest

import repro.analysis.plancheck as plancheck
import repro.core.runtime as runtime
from repro.config import ClusterSpec, NetworkSpec, NodeSpec, RuntimeSpec
from repro.core import AccessMode, DynMPIJob, NearestNeighbor
from repro.errors import SanitizerError
from repro.mpi import collectives
from repro.obs.scenario import RemovalScenario, run_removal
from repro.resilience import node_crash
from repro.simcluster import Cluster, CycleTrigger, LoadScript
from tests.test_rejoin import run_scenario as rejoin_run
from tests.test_resilience import run_crash_scenario

PLANNERS = ("plan_rebalance", "evaluate_drop", "plan_drop", "plan_rejoin",
            "plan_recovery")


def count_planners(monkeypatch) -> dict:
    """Wrap every planner the runtime calls with a call counter."""
    counts = dict.fromkeys(PLANNERS, 0)
    for name in PLANNERS:
        real = getattr(runtime, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(runtime, name, counted)
    return counts


def capture_applied(monkeypatch) -> list:
    """Record ``(world rank, transition)`` for every ``_apply``."""
    applied = []
    real = runtime.DynMPI._apply

    def spy(self, plan, t0=None):
        applied.append((self.world_rank, plan))
        return real(self, plan, t0)

    monkeypatch.setattr(runtime.DynMPI, "_apply", spy)
    return applied


def removal_16():
    result, _cluster = run_removal(
        RemovalScenario(n_nodes=16, n=64, iters=16, load_cycle=2, n_cp=2),
        observe=False)
    return result


def test_each_planner_runs_once_per_adaptation(monkeypatch):
    counts = count_planners(monkeypatch)
    applied = capture_applied(monkeypatch)
    result = removal_16()
    assert [ev.kind for ev in result.events] == ["redistribute", "drop"]
    # one redistribution, one drop decision (taken), no rejoin or crash
    assert counts == {"plan_rebalance": 1, "evaluate_drop": 1, "plan_drop": 1,
                      "plan_rejoin": 0, "plan_recovery": 0}
    # ... and every member installed that one Transition object
    by_kind: dict = {}
    for rank, plan in applied:
        by_kind.setdefault(plan.kind, {})[rank] = plan
    assert sorted(by_kind) == ["drop", "redistribute"]
    for kind, plans in by_kind.items():
        assert len(plans) == 16, kind
        assert len({id(p) for p in plans.values()}) == 1, kind


def test_shared_transition_arrays_are_read_only(monkeypatch):
    applied = capture_applied(monkeypatch)
    decisions = []
    real = runtime.evaluate_drop

    def keep(*args, **kwargs):
        decisions.append(real(*args, **kwargs))
        return decisions[-1]

    monkeypatch.setattr(runtime, "evaluate_drop", keep)
    removal_16()
    plans = {plan.kind: plan for _rank, plan in applied}
    for plan in plans.values():
        for arr in (plan.after.loads, plan.after.row_weights):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]
    [decision] = decisions
    assert decision.drop and not decision.keep_shares.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        decision.keep_shares[0] = 0.0


SCENARIOS = {
    "removal": lambda: removal_16().job,
    "rejoin": lambda: rejoin_run(allow_rejoin=True)[0],
    "crash": lambda: run_crash_scenario(node_crash(2, at_cycle=10))[0],
}


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_each_row_move_is_verified_once_per_job(monkeypatch, scenario):
    """The sanitizer verifies a row move where the job derives it, so
    the members of a Transition share one ``verify_transition`` call;
    and the job's shared table is empty once ``launch()`` returns."""
    monkeypatch.setenv("DYNMPI_SANITIZE", "1")
    calls = []
    real_verify = plancheck.verify_transition

    def verify(*args, **kwargs):
        calls.append(args[:2])
        return real_verify(*args, **kwargs)

    monkeypatch.setattr(plancheck, "verify_transition", verify)
    moves = set()
    real_apply = runtime.DynMPI._apply

    def spy(self, plan, t0=None):
        if plan.exchange_world is not None:
            moves.add((self.cycle, plan.old_ownership, plan.new_bounds))
        return real_apply(self, plan, t0)

    monkeypatch.setattr(runtime.DynMPI, "_apply", spy)
    job = SCENARIOS[scenario]()
    kinds = [ev.kind for ev in job.events]
    assert {"removal": "drop", "rejoin": "rejoin",
            "crash": "crash_recovery"}[scenario] in kinds
    assert len(calls) == len(moves)
    if scenario == "removal":
        assert len(calls) == 2  # the redistribution and the drop
    assert job._epochs == {}


def test_no_epoch_is_dropped_while_an_active_rank_is_in_it(monkeypatch):
    """The one lifetime rule of the shared table: cycle c's entries go
    only once every active rank has left cycle c.  A rank removed
    without rejoin runs its remaining cycles at once, so it must not
    be the one dropping them."""
    early = []
    real_init = runtime.DynMPIJob.__init__

    class Epochs(dict):
        def pop(self, cycle, *default):
            if cycle in self:
                early.extend((cycle, ctx.world_rank) for ctx in self.job.contexts
                             if ctx.active and ctx.cycle <= cycle)
            return super().pop(cycle, *default)

    def init(job, *args, **kwargs):
        real_init(job, *args, **kwargs)
        job._epochs = Epochs()
        job._epochs.job = job

    monkeypatch.setattr(runtime.DynMPIJob, "__init__", init)
    job, _results = rejoin_run(allow_rejoin=False)
    assert [ev.kind for ev in job.events] == ["redistribute", "drop"]
    assert early == []


# ----------------------------------------------------------------------
# a divergent replica is not masked by the memo
# ----------------------------------------------------------------------

SPEED = 1e8
N_ROWS = 64


def nn_program(ctx, n_cycles):
    ctx.register_dense("A", (N_ROWS, 8))
    ctx.register_dense("B", (N_ROWS, 8))
    ctx.init_phase(1, N_ROWS, NearestNeighbor(row_nbytes=64))
    ctx.add_array_access(1, "A", AccessMode.WRITE)
    ctx.add_array_access(1, "B", AccessMode.READ, lo_off=-1, hi_off=1)
    ctx.commit()
    row_work = SPEED * 2e-3 / N_ROWS * 4

    def work_of(s, e):
        return np.full(e - s + 1, row_work)

    for _ in range(n_cycles):
        yield from ctx.begin_cycle()
        if ctx.participating():
            yield from ctx.compute(1, work_of)
        yield from ctx.end_cycle()
    return ctx.my_bounds()


def test_divergent_replica_misses_the_memo_and_fails_lockstep(monkeypatch):
    """Rank 1 sees rank 2's grace estimates one ulp high.  It must plan
    its own Transition (a second ``plan_rebalance``), not install the
    others' — and the next cycle's lockstep check names the field."""
    counts = count_planners(monkeypatch)
    real = collectives.allgather_dissemination

    def perturbed(ep, group, value):
        gathered = yield from real(ep, group, value)
        if ep.rank == 1 and isinstance(value, tuple):  # the grace estimates
            rows, est = gathered[2]
            gathered = [*gathered[:2], (rows, np.nextafter(est, np.inf)),
                        *gathered[3:]]
        return gathered

    monkeypatch.setattr(collectives, "allgather_dissemination", perturbed)
    cluster = Cluster(ClusterSpec(
        n_nodes=4, node=NodeSpec(speed=SPEED),
        network=NetworkSpec(latency=75e-6, bandwidth=12.5e6,
                            cpu_per_byte=0.4, cpu_per_msg=3000.0),
        sanitize=True,
    ))
    cluster.install_script(LoadScript(
        cycle_triggers=[CycleTrigger(cycle=5, node=0, action="start")]))
    job = DynMPIJob(cluster, RuntimeSpec(
        grace_period=3, post_redist_period=5, allow_removal=False,
        daemon_interval=0.05))
    with pytest.raises(SanitizerError, match=(
            r"ranks (1 and \d|\d and 1) disagree on replicated 'row_weights'")):
        job.launch(nn_program, args=(40,))
    assert [ev.kind for ev in job.events] == ["redistribute"]
    assert counts["plan_rebalance"] == 2
