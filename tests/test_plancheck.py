"""Static redistribution-plan verifier tests: Section 4.4 invariants
on derived and tampered plans, the runtime self-check, and the CLI."""

import json

import numpy as np
import pytest

from repro.analysis.plancheck import (
    RedistPlan,
    accesses_to_phases,
    build_plan,
    verify_plan,
    verify_transition,
)
from repro.config import ClusterSpec, NetworkSpec, NodeSpec, RuntimeSpec
from repro.core import AccessMode, DynMPIJob, NearestNeighbor
from repro.core.drsd import DRSD
from repro.errors import PlanCheckError, SanitizerError
from repro.simcluster import Cluster, CycleTrigger, LoadScript

N = 12
ARRAYS = {"A": N, "B": N}
# A is written over the loop range; B is read with a +/-1 halo, the
# shape that makes ghost rows part of the needed sets.
PHASES = accesses_to_phases([
    DRSD("A", AccessMode.WRITE),
    DRSD("B", AccessMode.READ, lo_off=-1, hi_off=1),
])

OLD = ((0, 3), (4, 7), (8, 11))


def codes(violations):
    return sorted({v.code for v in violations})


# ----------------------------------------------------------------------
# derived plans are sound
# ----------------------------------------------------------------------

@pytest.mark.parametrize("new", [
    ((0, 5), (6, 9), (10, 11)),           # shrink rank 2
    ((0, 1), (2, 5), (6, 11)),            # grow rank 2
    ((0, 5), (6, 11), None),              # remove rank 2
    (None, (0, 5), (6, 11)),              # remove rank 0
    ((0, 11), None, None),                # collapse to one rank
])
def test_derived_plans_verify_clean(new):
    plan, violations = verify_transition(OLD, new, PHASES, ARRAYS)
    assert violations == []
    assert plan.rows_sent() > 0


def test_removed_rank_sends_out_but_never_in():
    new = ((0, 5), (6, 11), None)
    plan = build_plan(OLD, new, PHASES, ARRAYS)
    outgoing = [(s, d) for (s, d) in plan.sends if s == 2]
    incoming = [(s, d) for (s, d) in plan.sends if d == 2]
    assert outgoing and not incoming
    # rank 2's old rows 8..11 all land somewhere
    moved = {r for (s, d), entry in plan.sends.items() if s == 2
             for rows in entry.values() for r in rows}
    assert moved == {8, 9, 10, 11}


def test_noop_transition_moves_only_ghosts():
    plan, violations = verify_transition(OLD, OLD, PHASES, ARRAYS)
    assert violations == []
    # ghost halo rows are never *owned*, so the send rule refreshes
    # them even when bounds are unchanged; owned rows must not move
    moved = {name for entry in plan.sends.values() for name in entry}
    assert moved == {"B"}
    assert plan.rows_sent() == 4  # one halo row per internal boundary side


# ----------------------------------------------------------------------
# tampered plans are rejected
# ----------------------------------------------------------------------

def tampered_plan(new):
    """The runtime's own plan, rebuilt so tests can corrupt it."""
    return build_plan(OLD, new, PHASES, ARRAYS)


def test_dropped_extended_row_is_lost_row():
    new = ((0, 5), (6, 11), None)
    plan = tampered_plan(new)
    # drop one row rank 1 must newly hold (an extended row from rank 2)
    entry = plan.sends[(2, 1)]
    entry["A"] = entry["A"][:-1]
    violations = verify_plan(plan, OLD, new, PHASES, ARRAYS,
                             raise_on_error=False)
    assert "lost-row" in codes(violations)
    with pytest.raises(PlanCheckError, match="lost-row"):
        verify_plan(plan, OLD, new, PHASES, ARRAYS)


def test_dropped_ghost_row_is_lost_row():
    new = ((0, 7), (8, 9), (10, 11))
    plan = tampered_plan(new)
    # rank 1 now owns rows 8-9 and reads B rows 7..10: row 10 is pure
    # ghost (rank 2 keeps owning it).  Drop it from the transfer.
    entry = plan.sends[(2, 1)]
    assert 10 in entry["B"]
    entry["B"] = tuple(r for r in entry["B"] if r != 10)
    violations = verify_plan(plan, OLD, new, PHASES, ARRAYS,
                             raise_on_error=False)
    assert any(v.code == "lost-row" and v.array == "B" and "[10]" in v.message
               for v in violations)


def test_duplicate_sender_is_rejected():
    new = ((0, 5), (6, 11), None)
    plan = tampered_plan(new)
    # row 8 legitimately moves 2->1; a second copy from rank 0 is both
    # unowned (0 never held row 8) and a duplicate arrival
    plan.add(0, 1, "A", [8])
    violations = verify_plan(plan, OLD, new, PHASES, ARRAYS,
                             raise_on_error=False)
    assert {"duplicate-row", "unowned-send"} <= set(codes(violations))


def test_phantom_row_is_rejected():
    new = ((0, 5), (6, 9), (10, 11))
    plan = tampered_plan(new)
    # rank 0 owned row 0 and keeps it; shipping it to rank 2 is phantom
    plan.add(0, 2, "A", [0])
    violations = verify_plan(plan, OLD, new, PHASES, ARRAYS,
                             raise_on_error=False)
    assert "phantom-row" in codes(violations)


def test_send_to_removed_rank_is_rejected():
    new = ((0, 5), (6, 11), None)
    plan = tampered_plan(new)
    plan.add(0, 2, "A", [0])
    violations = verify_plan(plan, OLD, new, PHASES, ARRAYS,
                             raise_on_error=False)
    assert "send-to-removed" in codes(violations)


def test_self_send_and_bad_rank_are_rejected():
    new = ((0, 5), (6, 11), None)
    plan = tampered_plan(new)
    plan.add(1, 1, "A", [6])
    plan.add(0, 7, "A", [0])
    violations = verify_plan(plan, OLD, new, PHASES, ARRAYS,
                             raise_on_error=False)
    assert {"self-send", "bad-rank"} <= set(codes(violations))


def test_rank_count_mismatch_is_fatal():
    with pytest.raises(PlanCheckError, match="bad-rank"):
        verify_plan(RedistPlan(2), OLD, ((0, 5), (6, 11), None),
                    PHASES, ARRAYS)


# ----------------------------------------------------------------------
# CLI (python -m repro.analysis plan)
# ----------------------------------------------------------------------

def write_spec(tmp_path, plan=None):
    spec = {
        "n_rows": N,
        "old_bounds": list(OLD),
        "new_bounds": [[0, 5], [6, 11], None],
        "arrays": ARRAYS,
        "accesses": [
            {"array": "A", "mode": "write"},
            {"array": "B", "mode": "read", "lo_off": -1, "hi_off": 1},
        ],
    }
    if plan is not None:
        spec["plan"] = plan
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_cli_derived_plan_ok(tmp_path, capsys):
    from repro.analysis.__main__ import main
    assert main(["plan", write_spec(tmp_path)]) == 0
    assert "plan OK (derived)" in capsys.readouterr().out


def test_cli_supplied_corrupt_plan_fails(tmp_path, capsys):
    from repro.analysis.__main__ import main
    # rank 2's rows never move anywhere: every one is lost
    path = write_spec(tmp_path, plan={"0->1": {"A": [0]}})
    assert main(["plan", path]) == 1
    out = capsys.readouterr().out
    assert "lost-row" in out and "phantom-row" in out


# ----------------------------------------------------------------------
# runtime self-check integration: a real adaptive run redistributes
# through verify_transition (wired into DynMPI._move, which derives the
# row move of every kind of transition) cleanly, and a replica that diverges between
# transitions is caught by the lockstep check at the next cycle
# ----------------------------------------------------------------------

SPEED = 1e8
N_ROWS = 64


def adaptive_program(ctx, n_cycles, corrupt_at=None):
    A = ctx.register_dense("A", (N_ROWS, 8))
    ctx.register_dense("B", (N_ROWS, 8))
    ctx.init_phase(1, N_ROWS, NearestNeighbor(row_nbytes=64))
    ctx.add_array_access(1, "A", AccessMode.WRITE)
    ctx.add_array_access(1, "B", AccessMode.READ, lo_off=-1, hi_off=1)
    ctx.commit()

    row_work = SPEED * 2e-3 / N_ROWS * 4

    def work_of(s, e):
        return np.full(e - s + 1, row_work)

    for t in range(n_cycles):
        if t == corrupt_at and ctx.world_rank == 1:
            # one replica diverges
            ctx.view = ctx.view._replace(row_weights=ctx.view.row_weights * 2.0)
        yield from ctx.begin_cycle()
        if ctx.participating():
            yield from ctx.compute(1, work_of)
        yield from ctx.end_cycle()
    return ctx.my_bounds()


def sanitized_adaptive_job():
    cluster = Cluster(ClusterSpec(
        n_nodes=4,
        node=NodeSpec(speed=SPEED),
        network=NetworkSpec(latency=75e-6, bandwidth=12.5e6,
                            cpu_per_byte=0.4, cpu_per_msg=3000.0),
        sanitize=True,
    ))
    cluster.install_script(LoadScript(
        cycle_triggers=[CycleTrigger(cycle=5, node=0, action="start")]
    ))
    return cluster, DynMPIJob(cluster, RuntimeSpec(
        grace_period=3, post_redist_period=5,
        allow_removal=False, daemon_interval=0.05,
    ))


def test_sanitized_adaptive_run_passes_self_check():
    cluster, job = sanitized_adaptive_job()
    results = job.launch(adaptive_program, args=(40,))
    # the loaded node's share shrank: a redistribution really happened,
    # and its plan passed verify_transition without a PlanCheckError
    s0, e0 = results[0]
    assert (e0 - s0 + 1) < N_ROWS // 4
    assert cluster.sanitizer.finalize(raise_on_error=False).errors == []


def test_lockstep_check_names_the_diverged_field_and_ranks():
    """Rank 1's row weights drift after the redistribution.  Without
    the check nothing fails until the next transition plans different
    bounds on rank 1 (corrupted rows, possibly a rejoin later); with it
    the very next control exchange raises a typed error."""
    _cluster, job = sanitized_adaptive_job()
    with pytest.raises(SanitizerError, match=(
            r"ranks (1 and \d|\d and 1) disagree on replicated "
            r"'row_weights' entering cycle 20")):
        job.launch(adaptive_program, args=(40, 20))
    assert [ev.kind for ev in job.events] == ["redistribute"]
    assert job.events[0].cycle < 20
