"""Property tests of the adaptation policy with no simulator: the
planners of ``repro.core.transition`` are pure functions of a
replicated ``View``, so every invariant a redistribution relies on —
rows tiled exactly once, removal and rejoin shapes, crash adoption on
the checkpoint holder, a plan ``plancheck`` accepts — is checked here
on plain tuples and arrays."""

import ast
import inspect

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.plancheck import accesses_to_phases, verify_transition
from repro.config import NetworkSpec, RuntimeSpec
from repro.core import DRSD, AccessMode, CommCostModel, NearestNeighbor
from repro.core import DropDecision, IntervalSet, shares_to_blocks
from repro.core import transition as tr
from repro.errors import CheckpointLostError
from repro.resilience.checkpoint import holder_for

SPEED = 1e8
PHASES = accesses_to_phases([DRSD("A", AccessMode.READWRITE, -1, 1)])
PATTERNS = [NearestNeighbor(row_nbytes=64)]
MODEL = CommCostModel.from_spec(NetworkSpec(), SPEED)


@st.composite
def views(draw, min_parked=0):
    """(view, loop_size, parked world ranks): an arbitrary active group
    inside a larger world, holding an arbitrary block tiling."""
    n = draw(st.integers(2, 16))
    n_world = n + draw(st.integers(min_parked, 3))
    world = tuple(sorted(draw(st.permutations(range(n_world)))[:n]))
    loop_size = draw(st.integers(n, 160))
    shares = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    assume(sum(shares) > 0)
    bounds = shares_to_blocks(loop_size, shares).bounds
    weights = np.asarray(draw(st.lists(
        st.floats(1e-6, 1e-2), min_size=loop_size, max_size=loop_size)))
    loads = np.asarray(draw(st.lists(
        st.integers(1, 4), min_size=n, max_size=n)))
    view = tr.View(world, bounds, loads, weights,
                   draw(st.integers(0, 5)), tr.MODE_NORMAL, ())
    parked = [w for w in range(n_world) if w not in world]
    return view, loop_size, parked


def assert_tiles(bounds, loop_size):
    nxt = 0
    for b in bounds:
        if b is not None:
            lo, hi = b
            assert lo == nxt and hi >= lo
            nxt = hi + 1
    assert nxt == loop_size


def assert_sound(plan, loop_size):
    """What every transition owes the mechanism that executes it."""
    n = len(plan.exchange_world)
    assert len(plan.old_ownership) == len(plan.new_bounds) == n
    assert_tiles(plan.new_bounds, loop_size)
    assert_tiles(plan.after.bounds, loop_size)
    assert len(plan.after.bounds) == len(plan.after.world)
    assert len(plan.after.loads) == len(plan.after.world)
    assert plan.recorder in plan.exchange_world
    _plan, violations = verify_transition(
        plan.old_ownership, plan.new_bounds, PHASES, {"A": loop_size},
        raise_on_error=False,
    )
    assert violations == []


def drop_decision(draw, n):
    removed = draw(st.lists(st.integers(0, n - 1), min_size=1,
                            max_size=n - 1, unique=True))
    kept = [r for r in range(n) if r not in removed]
    shares = np.asarray(draw(st.lists(
        st.floats(0.05, 1.0), min_size=len(kept), max_size=len(kept))))
    return DropDecision(True, tuple(sorted(removed)), 0.5, 1.0,
                        keep_shares=shares / shares.sum()), kept


@given(views())
@settings(max_examples=60, deadline=None)
def test_rebalance_tiles_and_counts_the_redistribution(drawn):
    view, loop_size, _parked = drawn
    gathered = [
        ([], np.zeros(0)) if b is None else
        (list(range(b[0], b[1] + 1)), view.row_weights[b[0]: b[1] + 1])
        for b in view.bounds
    ]
    plan = tr.plan_rebalance(
        view, loop_size, gathered, ref_speed=SPEED, patterns=PATTERNS,
        comm_model=MODEL, source="hrtimer",
    )
    assert_sound(plan, loop_size)
    assert plan.kind == "redistribute"
    assert plan.exchange_world == plan.after.world == view.world
    assert plan.old_ownership == view.bounds
    assert plan.after.bounds == plan.new_bounds
    assert np.array_equal(plan.after.row_weights, view.row_weights)
    assert plan.after.n_redistributions == view.n_redistributions + 1
    assert plan.after.mode == tr.MODE_POST
    assert abs(sum(plan.detail["shares"]) - 1) < 1e-9


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_physical_drop_empties_and_excludes_the_removed(data):
    view, loop_size, _parked = data.draw(views())
    decision, kept = drop_decision(data.draw, len(view.world))
    plan = tr.plan_drop(view, loop_size, decision,
                        RuntimeSpec(drop_mode="physical"))
    assert_sound(plan, loop_size)
    assert plan.kind == "drop"
    assert plan.exchange_world == view.world
    assert all(plan.new_bounds[r] is None for r in decision.removed)
    assert plan.after.world == tuple(view.world[r] for r in kept)
    assert plan.after.bounds == tuple(plan.new_bounds[r] for r in kept)
    assert list(plan.after.loads) == [view.loads[r] for r in kept]
    assert plan.detail["removed_world"] == [
        view.world[r] for r in decision.removed]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_logical_drop_parks_min_rows_at_the_rank_position(data):
    view, loop_size, _parked = data.draw(views())
    decision, _kept = drop_decision(data.draw, len(view.world))
    assume(loop_size > tr.LOGICAL_MIN_ROWS * len(decision.removed))
    plan = tr.plan_drop(
        view, loop_size, decision, RuntimeSpec(drop_mode="logical"),
    )
    assert_sound(plan, loop_size)  # tiling in rank order = rank position
    assert plan.kind == "logical_drop"
    assert plan.after.world == view.world
    assert plan.after.bounds == plan.new_bounds
    for r in decision.removed:
        lo, hi = plan.new_bounds[r]
        assert hi - lo + 1 == tr.LOGICAL_MIN_ROWS


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_rejoin_grows_the_group_around_the_previous_owners(data):
    view, loop_size, parked = data.draw(views(min_parked=1))
    rejoining = tuple(sorted(data.draw(st.lists(
        st.sampled_from(parked), min_size=1, unique=True))))
    plan = tr.plan_rejoin(view, loop_size, rejoining)
    assert_sound(plan, loop_size)
    assert plan.kind == "rejoin"
    assert plan.exchange_world == plan.after.world \
        == tuple(sorted(view.world + rejoining))
    old = dict(zip(plan.exchange_world, plan.old_ownership))
    assert tuple(old[w] for w in view.world) == view.bounds
    assert all(old[w] is None for w in rejoining)
    assert plan.recorder == view.world[0]
    # the whole view travels, not just group and bounds
    assert plan.after.row_weights is view.row_weights
    assert plan.after.n_redistributions == view.n_redistributions
    assert list(plan.after.loads) == [1] * len(plan.after.world)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_recovery_lands_dead_rows_on_their_checkpoint_holder(data):
    view, loop_size, parked = data.draw(views())
    n = len(view.world)
    dead = tuple(sorted(data.draw(st.lists(
        st.sampled_from(view.world + tuple(parked)), min_size=1,
        max_size=n - 1, unique=True))))
    assume(any(w not in dead for w in view.world))
    replication = data.draw(st.integers(1, 3))
    dead_rels = [r for r in range(n) if view.world[r] in dead]
    alive_rels = set(range(n)) - set(dead_rels)
    try:
        holders = {view.world[dr]:
                   view.world[holder_for(dr, n, replication, alive_rels)]
                   for dr in dead_rels}
    except CheckpointLostError:
        with pytest.raises(CheckpointLostError):
            tr.plan_recovery(view, loop_size, dead, replication,
                             {"A": loop_size})
        return
    plan = tr.plan_recovery(view, loop_size, dead, replication,
                            {"A": loop_size})
    assert plan.kind == "crash_recovery"
    assert plan.after.dead_world == dead
    assert plan.detail["parked_dead"] == [w for w in dead if w in parked]
    if not dead_rels:  # only parked ranks died: nothing moves
        assert plan.exchange_world is None and plan.replays == ()
        assert plan.after == view._replace(dead_world=dead)
        return
    assert_sound(plan, loop_size)
    survivors = tuple(w for w in view.world if w not in dead)
    assert plan.exchange_world == plan.after.world == survivors
    assert plan.recorder == survivors[0]
    assert dict(plan.replays) == plan.detail["holders"] == holders
    # old ownership partitions the rows ...
    owned = [IntervalSet.from_bounds(o) for o in plan.old_ownership]
    assert sum(len(o) for o in owned) == loop_size
    union = IntervalSet.empty()
    for o in owned:
        union = union | o
    assert union == IntervalSet.span(0, loop_size - 1)
    # ... and each dead rank's rows sit with its holder
    before = dict(zip(view.world, view.bounds))
    for d, h in holders.items():
        rows = IntervalSet.from_bounds(before[d])
        assert not rows - owned[survivors.index(h)]
    assert plan.detail["adopted_rows"] == sum(
        len(IntervalSet.from_bounds(before[d])) for d in holders)


def test_planners_are_pure():
    """No ``yield`` and no import of the simulator, the MPI layer or the
    runtime: a Transition is plain tuples and arrays, so it pins no
    DynMPI / DynMPIJob / Endpoint / Group alive."""
    tree = ast.parse(inspect.getsource(tr))
    assert not any(isinstance(node, (ast.Yield, ast.YieldFrom))
                   for node in ast.walk(tree))
    imports = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    imported = {part for n in imports for part in (n.module or "").split(".")}
    imported |= {alias.name for n in imports for alias in n.names}
    assert not imported & {"simcluster", "mpi", "runtime"}
