"""dynfarm: the elastic task farm.

Pins the subsystem's acceptance invariants: every policy completes the
full job set with a digest bitwise-identical to the computed reference;
a worker crashed mid-job has its in-flight chunk requeued exactly once
and the completed set still matches an undisturbed run; the digest is
invariant under ``DYNMPI_PERTURB`` schedule perturbation; parked
workers are re-admitted; and total worker loss raises ``FarmError``
instead of hanging.
"""

import pytest

from repro.campaign import run_combo
from repro.config import ClusterSpec
from repro.errors import ConfigError, FarmError
from repro.farm import (
    POLICIES,
    FarmSpec,
    JobQueue,
    farm_digest,
    farm_oracle,
    reference_results,
    run_farm,
)
from repro.resilience import CycleFault, FailureScript
from repro.simcluster import Cluster, CycleTrigger, LoadScript

N_JOBS = 200
SEED = 0
REFERENCE = farm_digest(reference_results(N_JOBS, SEED))


def small_cluster(n=6, **kw):
    return Cluster(ClusterSpec(n_nodes=n, seed=SEED, **kw))


def small_spec(policy, **kw):
    kw.setdefault("n_jobs", N_JOBS)
    kw.setdefault("seed", SEED)
    kw.setdefault("chunk", 8)
    kw.setdefault("cycles", 6)
    return FarmSpec(policy=policy, **kw)


# ----------------------------------------------------------------------
# completeness + cross-policy digest identity
# ----------------------------------------------------------------------

@pytest.mark.parametrize("policy", POLICIES)
def test_policy_completes_with_reference_digest(policy):
    result = run_farm(small_cluster(sanitize=True), small_spec(policy))
    assert result.jobs_done == N_JOBS
    assert result.digest == REFERENCE
    assert result.duplicates == 0
    assert result.n_requeued == 0
    # every completed job ran on some worker
    assert sum(result.per_worker.values()) >= N_JOBS


def test_digest_identical_across_policies_and_skews():
    digests = {
        (policy, skew): run_farm(
            small_cluster(), small_spec(policy, skew=skew)
        ).digest
        for policy in POLICIES
        for skew in ("uniform", "hot")
    }
    assert set(digests.values()) == {REFERENCE}


# ----------------------------------------------------------------------
# elasticity: crash requeue, perturbation, park/readmit
# ----------------------------------------------------------------------

def test_crash_mid_job_requeues_and_matches_undisturbed_run():
    undisturbed = run_farm(small_cluster(), small_spec("self"))
    failure = FailureScript(cycle_faults=[
        CycleFault(cycle=2, node=3, action="kill"),
    ])
    crashed = run_farm(small_cluster(sanitize=True), small_spec("self"),
                       failure_script=failure)
    assert crashed.jobs_done == N_JOBS
    # the completed map — not just its digest — is bitwise-identical
    assert crashed.completed == undisturbed.completed
    assert crashed.digest == REFERENCE
    assert crashed.dead_workers and crashed.n_requeued > 0
    # requeue-exactly-once: no job bounces through the queue twice
    assert max(crashed.requeued.values()) == 1
    # the dead worker's in-flight jobs were re-run elsewhere, and the
    # dedup-by-completed-set counted any late duplicates it produced
    assert crashed.duplicates >= 0


@pytest.mark.parametrize("policy", ("self", "rma"))
def test_perturb_invariance_across_seeds(policy):
    digests = set()
    for perturb in (1, 2, 3):
        result = run_farm(small_cluster(perturb=perturb),
                          small_spec(policy))
        assert result.jobs_done == N_JOBS
        digests.add(result.digest)
    assert digests == {REFERENCE}


def test_load_burst_parks_then_readmits_workers():
    load = LoadScript(cycle_triggers=[
        CycleTrigger(cycle=2, node=4, action="start", count=2),
        CycleTrigger(cycle=4, node=4, action="stop", count=2),
    ])
    result = run_farm(small_cluster(sanitize=True), small_spec("guided"),
                      load_script=load)
    assert result.jobs_done == N_JOBS
    assert result.digest == REFERENCE
    assert result.park_events >= 1
    assert result.readmit_events >= 1
    if result.requeued:
        assert max(result.requeued.values()) == 1


def test_churn_under_every_policy_keeps_digest():
    failure = FailureScript(cycle_faults=[
        CycleFault(cycle=2, node=3, action="kill"),
    ])
    load = LoadScript(cycle_triggers=[
        CycleTrigger(cycle=3, node=5, action="start", count=2),
        CycleTrigger(cycle=5, node=5, action="stop", count=2),
    ])
    for policy in POLICIES:
        result = run_farm(
            Cluster(ClusterSpec(n_nodes=8, seed=SEED)),
            small_spec(policy),
            load_script=load, failure_script=failure,
        )
        assert result.jobs_done == N_JOBS, policy
        assert result.digest == REFERENCE, policy
        if result.requeued:
            assert max(result.requeued.values()) == 1, policy


def test_all_workers_dead_raises_farm_error():
    failure = FailureScript(cycle_faults=[
        CycleFault(cycle=1, node=1, action="kill"),
        CycleFault(cycle=1, node=2, action="kill"),
    ])
    with pytest.raises(FarmError, match="every worker died"):
        run_farm(small_cluster(3), small_spec("self", cycles=4),
                 failure_script=failure)


# ----------------------------------------------------------------------
# validation + units
# ----------------------------------------------------------------------

def test_farm_spec_validation():
    with pytest.raises(ConfigError, match="at least one job"):
        run_farm(small_cluster(2), FarmSpec(n_jobs=0))
    with pytest.raises(ConfigError, match="chunk"):
        run_farm(small_cluster(2), FarmSpec(chunk=0))
    with pytest.raises(ConfigError, match="skew"):
        run_farm(small_cluster(2), FarmSpec(skew="bimodal"))
    with pytest.raises(ConfigError, match="master and at least one"):
        run_farm(small_cluster(1), FarmSpec())


def test_farm_config_validation_and_oracle():
    with pytest.raises(ConfigError, match="unknown farm policy 'round-robin'"):
        FarmSpec(policy="round-robin").validate()
    with pytest.raises(ConfigError):
        FarmSpec(n_jobs=-5).validate()
    spec = FarmSpec(n_jobs=120, policy="rma", chunk=4)
    result = run_farm(small_cluster(4), spec)
    check = farm_oracle(spec)
    assert check(result) == ""
    # a tampered digest is caught
    result.digest = "0" * 40
    assert "deviates" in check(result)


def test_job_queue_take_requeue_accounting():
    q = JobQueue(range(10))
    assert len(q) == 10
    # a chunk inside one run is a range, one spanning runs an array
    assert q.take(4) == range(4)
    assert len(q.take(0)) == 0
    lost = [1, 3]
    q.requeue(lost)
    lost[0] = 99  # the queue holds a copy, not the caller's list
    q.requeue([1])
    chunk = q.take(100)
    assert chunk.tolist() == [4, 5, 6, 7, 8, 9, 1, 3, 1]
    assert not chunk.flags.writeable
    assert len(q) == 0
    assert q.requeued == {1: 2, 3: 1}
    assert q.n_requeued == 3
    q.extend([42])
    assert len(q) == 1 and q.n_requeued == 3


# ----------------------------------------------------------------------
# model pin: exact simulated outputs of a small grid
# ----------------------------------------------------------------------

#: the reference digest of 2 000 jobs at seed 0
PIN_DIGEST = "48c47332b2e9378e1308161486ee842517f06ce9"

#: (policy, skew, churn) -> (wall_time.hex(), sim.n_events,
#: network.n_messages, n_requeued, duplicates, digest) on 8 nodes, 2 000
#: jobs, chunk 16, seed 0, recorded before the job tables replaced the
#: per-job hashes (the ``rma`` event counts re-captured when a worker's
#: DONE isend began paying its CPU in the worker, not in a phantom job
#: beside it; the wall times when the clock became integer ns, each the
#: old float rounded to ns).  A change to how a job is priced or
#: reported moves one of these.  A chunk summed in another order does
#: not (its last-bit difference is far below the clock's 1 ns
#: resolution): tests/test_farm_jobs.py holds the summation order.
MODEL_PIN = {
    ('static', 'hot', 0):
        ('0x1.7d557823f5750p-5', 419, 28, 0, 0, PIN_DIGEST),
    ('self', 'hot', 0):
        ('0x1.8ede3f3afe58bp-5', 1928, 264, 0, 0, PIN_DIGEST),
    ('guided', 'hot', 0):
        ('0x1.7e2a4581720e1p-5', 1448, 190, 0, 0, PIN_DIGEST),
    ('factoring', 'hot', 0):
        ('0x1.70c7e4ecba642p-5', 1097, 136, 0, 0, PIN_DIGEST),
    ('rma', 'hot', 0):
        ('0x1.778dc09d6987ep-5', 2205, 431, 0, 0, PIN_DIGEST),
    ('static', 'hot', 1):
        ('0x1.5a5a381e99371p-4', 610, 28, 286, 0, PIN_DIGEST),
    ('self', 'hot', 1):
        ('0x1.d43185891669ap-5', 1987, 266, 32, 16, PIN_DIGEST),
    ('guided', 'hot', 1):
        ('0x1.cc0761eb79d88p-5', 1391, 173, 200, 200, PIN_DIGEST),
    ('factoring', 'hot', 1):
        ('0x1.a39ad39a3539bp-5', 1004, 116, 144, 72, PIN_DIGEST),
    ('rma', 'hot', 1):
        ('0x1.db80149e83ca6p-5', 2253, 425, 16, 0, PIN_DIGEST),
    ('self', 'linear', 0):
        ('0x1.40399679a98f3p-5', 1880, 264, 0, 0, PIN_DIGEST),
}


def _pin_cell(policy, skew, churn):
    cluster = Cluster(ClusterSpec(n_nodes=8, seed=0))
    load = failure = None
    if churn:
        failure = FailureScript(cycle_faults=[
            CycleFault(cycle=2, node=2, action="kill")])
        load = LoadScript(cycle_triggers=[
            CycleTrigger(cycle=3, node=4, action="start", count=2),
            CycleTrigger(cycle=5, node=4, action="stop", count=2)])
    spec = FarmSpec(n_jobs=2000, policy=policy, chunk=16, skew=skew, seed=0)
    r = run_farm(cluster, spec, load_script=load, failure_script=failure)
    return (r.wall_time.hex(), cluster.sim.n_events,
            cluster.network.n_messages, r.n_requeued, r.duplicates, r.digest)


@pytest.mark.parametrize("cell", sorted(MODEL_PIN))
def test_model_pin(cell):
    assert _pin_cell(*cell) == MODEL_PIN[cell]


def test_model_pin_digest_is_the_reference():
    assert farm_digest(reference_results(2000, 0)) == PIN_DIGEST


# ----------------------------------------------------------------------
# campaign integration
# ----------------------------------------------------------------------

def test_campaign_farm_combo_runs_and_checks():
    row = run_combo({
        "app": "farm", "policy": "rma", "n_nodes": 4,
        "n_jobs": 120, "chunk": 4, "skew": "hot",
        "seed": 0, "cycles": 4, "sanitize": 1,
    })
    metrics = row["metrics"]
    assert metrics["jobs_done"] == 120
    assert metrics["jobs_per_sec"] > 0
    assert metrics["duplicates"] == 0


def test_campaign_aggregates_farm_rows():
    # farm rows carry a different metric set than the phase apps; the
    # aggregate must summarize throughput, not KeyError on redist/drop
    from repro.campaign.report import render_summary
    from repro.campaign.results import aggregate_results

    rows = [run_combo({
        "app": "farm", "policy": policy, "n_nodes": 4,
        "n_jobs": 120, "chunk": 4, "cycles": 4,
    }) for policy in ("self", "rma")]
    agg = aggregate_results("t", rows)
    (group,) = agg["groups"]
    assert group["app"] == "farm" and group["count"] == 2
    assert group["min_jobs_done"] == 120
    assert group["mean_jobs_per_sec"] > 0
    assert "farm" in render_summary(agg)


def test_campaign_rejects_master_node_faults():
    with pytest.raises(ConfigError, match="node 0"):
        run_combo({
            "app": "farm", "policy": "self", "n_nodes": 4,
            "n_jobs": 120, "failure": "crash:n0@c2",
        })
