"""Direct unit tests for the redistribution machinery: the needed-rows
derivation (DRSDs + bounds) and the row mover itself, exercised
without the full runtime."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ClusterSpec, NetworkSpec, NodeSpec
from repro.core import AccessMode, DRSD, NearestNeighbor, Phase, needed_map
from repro.core.intervals import IntervalSet
from repro.core.redistribute import (
    RedistReport,
    owned_intervals,
    plan_edges,
    redistribute,
)
from repro.dmem import MemCostModel, ProjectedArray, SparseMatrix
from repro.errors import RedistributionError
from repro.mpi import Group, run_spmd
from repro.mpi.collectives import allgather
from repro.obs.scenario import RemovalScenario, run_removal
from repro.simcluster import Cluster
from tests.oracles import row_sets


def make_cluster(n=3):
    return Cluster(ClusterSpec(
        n_nodes=n, node=NodeSpec(speed=1e8),
        network=NetworkSpec(latency=1e-5, bandwidth=1e8),
    ))


def phases_for(n_rows):
    ph = Phase(1, n_rows, NearestNeighbor(row_nbytes=64))
    ph.add_access(DRSD("A", AccessMode.WRITE))
    ph.add_access(DRSD("B", AccessMode.READ, lo_off=-1, hi_off=1))
    return {1: ph}


# ----------------------------------------------------------------------
# needed_map
# ----------------------------------------------------------------------
def test_needed_map_owned_plus_halo():
    phases = phases_for(12)
    bounds = ((0, 3), (4, 7), (8, 11))
    needed = needed_map(phases, bounds, {"A": 12, "B": 12})
    assert needed[0]["A"] == set(range(0, 4))
    assert needed[0]["B"] == set(range(0, 5))       # +1 ghost below
    assert needed[1]["B"] == set(range(3, 9))       # ghosts both sides
    assert needed[2]["B"] == set(range(7, 12))      # clipped at the top


def test_needed_map_empty_participant():
    phases = phases_for(8)
    bounds = ((0, 7), None)
    needed = needed_map(phases, bounds, {"A": 8, "B": 8})
    assert needed[1]["A"] == set()
    assert needed[1]["B"] == set()


def test_needed_map_unregistered_array_raises():
    phases = phases_for(8)
    with pytest.raises(RedistributionError):
        needed_map(phases, ((0, 7),), {"A": 8})  # B missing


def test_needed_map_multiple_phases_union():
    ph1 = Phase(1, 10, NearestNeighbor(row_nbytes=8))
    ph1.add_access(DRSD("A", AccessMode.READ, lo_off=-2, hi_off=0))
    ph2 = Phase(2, 10, NearestNeighbor(row_nbytes=8))
    ph2.add_access(DRSD("A", AccessMode.READ, lo_off=0, hi_off=2))
    needed = needed_map({1: ph1, 2: ph2}, ((3, 6), (7, 9), (0, 2)), {"A": 10})
    # rank 0 owns 3..6; needs 1..6 from ph1, 3..8 from ph2
    assert needed[0]["A"] == set(range(1, 9))


# ----------------------------------------------------------------------
# redistribute (driven through real simulated ranks)
# ----------------------------------------------------------------------
def run_redistribution(old_bounds, new_bounds, n_rows=12, sparse=False):
    cluster = make_cluster(3)
    group = Group([0, 1, 2])
    phases = phases_for(n_rows)
    reports = {}
    final = {}

    def program(ep):
        me = ep.rank
        A = ProjectedArray("A", (n_rows, 2))
        if sparse:
            B = SparseMatrix("B", (n_rows, n_rows))
        else:
            B = ProjectedArray("B", (n_rows, 2))
        arrays = {"A": A, "B": B}
        needed_old = needed_map(phases, old_bounds, {"A": n_rows, "B": n_rows})
        for name, arr in arrays.items():
            arr.hold(needed_old[me][name])
        # stamp owned rows so provenance is checkable
        b = old_bounds[me]
        if b is not None:
            for g in range(b[0], b[1] + 1):
                if sparse:
                    B.set(g, g % n_rows, float(g))
                else:
                    B.row(g)[:] = g
                A.row(g)[:] = g

        needed_new = needed_map(phases, new_bounds, {"A": n_rows, "B": n_rows})
        report = yield from redistribute(
            ep, group, old_bounds, new_bounds, arrays, needed_new,
            MemCostModel(),
        )
        reports[me] = report
        final[me] = arrays

    run_spmd(cluster, program)
    return reports, final


def test_rows_move_to_new_owners_with_data():
    old = ((0, 3), (4, 7), (8, 11))
    new = ((0, 5), (6, 9), (10, 11))
    reports, final = run_redistribution(old, new)
    # rank 0 gained rows 4,5 (previously rank 1's): values preserved
    A0 = final[0]["A"]
    for g in (4, 5):
        assert A0.holds(g)
        assert np.all(A0.row(g) == g)
    # rank 2 dropped rows 8,9
    A2 = final[2]["A"]
    assert not A2.holds(8) and not A2.holds(9)
    assert reports[1].rows_sent > 0
    assert reports[0].rows_received >= 2


def test_halo_rows_fetched_fresh():
    old = ((0, 3), (4, 7), (8, 11))
    new = ((0, 5), (6, 9), (10, 11))
    _, final = run_redistribution(old, new)
    # rank 1's B needs ghost row 5 (owned by rank 0 now, rank 1 before)
    B1 = final[1]["B"]
    assert B1.holds(5) and B1.holds(10)
    assert np.all(B1.row(10) == 10)  # fetched from old owner rank 2


def test_sparse_rows_travel_with_metadata():
    old = ((0, 3), (4, 7), (8, 11))
    new = ((0, 5), (6, 9), (10, 11))
    _, final = run_redistribution(old, new, sparse=True)
    B0 = final[0]["B"]
    assert B0.row_items(4) == [(4, 4.0)]
    assert B0.row_items(5) == [(5, 5.0)]
    B1 = final[1]["B"]
    assert B1.row_items(8) == [(8, 8.0)]


def test_identity_redistribution_moves_only_ghosts():
    """With unchanged bounds, no *owned* rows move; only the read
    halos are refreshed from their owners (they were never owned by
    the holder, so their copies are treated as stale by design)."""
    bounds = ((0, 3), (4, 7), (8, 11))
    reports, _ = run_redistribution(bounds, bounds)
    for rep in reports.values():
        assert rep.per_array_sent.get("A", 0) == 0  # no halo on A
        assert rep.per_array_sent.get("B", 0) <= 2  # one ghost per side
    assert sum(r.rows_sent for r in reports.values()) == 4  # 4 boundary ghosts


def test_drop_style_redistribution_empties_a_rank():
    old = ((0, 3), (4, 7), (8, 11))
    new = ((0, 5), None, (6, 11))
    reports, final = run_redistribution(old, new)
    assert final[1]["A"].n_held == 0
    assert reports[1].rows_sent >= 4 * 2  # both arrays leave rank 1
    total_held = sum(final[r]["A"].n_held for r in range(3))
    assert total_held == 12


def test_report_conserves_bytes_and_rows():
    """Every byte and row one rank reports sent, another reports
    received (``bytes_received`` used to stay 0)."""
    for new in (((0, 5), (6, 9), (10, 11)), ((0, 5), None, (6, 11))):
        reports, _ = run_redistribution(((0, 3), (4, 7), (8, 11)), new)
        reps = reports.values()
        assert sum(r.bytes_sent for r in reps) > 0
        assert sum(r.bytes_sent for r in reps) == \
            sum(r.bytes_received for r in reps)
        assert sum(r.rows_sent for r in reps) == \
            sum(r.rows_received for r in reps)


def test_mem_work_charged():
    old = ((0, 3), (4, 7), (8, 11))
    new = ((0, 5), (6, 9), (10, 11))
    reports, _ = run_redistribution(old, new)
    assert all(rep.mem_work >= 0 for rep in reports.values())
    assert any(rep.mem_work > 0 for rep in reports.values())


def test_bounds_length_mismatch_raises():
    cluster = make_cluster(2)
    group = Group([0, 1])
    phases = phases_for(8)

    def program(ep):
        A = ProjectedArray("A", (8, 2))
        B = ProjectedArray("B", (8, 2))
        needed = needed_map(phases, ((0, 3), (4, 7)), {"A": 8, "B": 8})
        with pytest.raises(RedistributionError):
            yield from redistribute(
                ep, group, ((0, 7),), ((0, 3), (4, 7)),
                {"A": A, "B": B}, needed, MemCostModel(),
            )
        yield from ()

    run_spmd(cluster, program)


# ----------------------------------------------------------------------
# the sparse, plan-derived exchange
# ----------------------------------------------------------------------
@st.composite
def _ownership(draw, n_ranks, n_rows):
    """A block distribution with removed ranks (``None``): random cut
    points, and each rank independently absent — its rows then have no
    owner, as after a removal the plan never refilled."""
    cuts = sorted(draw(st.lists(st.integers(0, n_rows),
                                min_size=n_ranks - 1, max_size=n_ranks - 1)))
    edges = [0, *cuts, n_rows]
    return [
        None if edges[i] == edges[i + 1] or draw(st.integers(0, 3)) == 0
        else (edges[i], edges[i + 1] - 1)
        for i in range(n_ranks)
    ]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_sparse_exchange_matches_row_set_oracle(data):
    """Random (old ownership, new bounds, halo) — removed ranks, crash
    adoption (non-contiguous ``IntervalSet`` ownership) and a grown
    group (members that owned nothing) included: the rows every rank
    ends up holding, and their contents, equal what the per-row oracle
    plan delivers; each rank posts exactly one send per outgoing plan
    edge and one receive per incoming one; a rank without edges posts
    nothing and still consumes its tag."""
    n_ranks = data.draw(st.integers(2, 6), label="n_ranks")
    n_rows = data.draw(st.integers(n_ranks, 48), label="n_rows")
    halo_lo = data.draw(st.integers(0, 3), label="halo_lo")
    halo_hi = data.draw(st.integers(0, 3), label="halo_hi")
    old_bounds = data.draw(_ownership(n_ranks, n_rows), label="old")
    new_bounds = tuple(data.draw(_ownership(n_ranks, n_rows), label="new"))
    if data.draw(st.booleans(), label="adopt"):
        # crash recovery: a survivor adopts a dead rank's rows, so its
        # old ownership is an explicit, possibly non-contiguous set
        dead = data.draw(st.integers(0, n_ranks - 1))
        buddy = (dead + data.draw(st.integers(1, n_ranks - 1))) % n_ranks
        merged = owned_intervals(old_bounds, dead) | \
            owned_intervals(old_bounds, buddy)
        old_bounds[dead] = None
        old_bounds[buddy] = merged if merged else None
    old_bounds = tuple(old_bounds)

    ph = Phase(1, n_rows, NearestNeighbor(row_nbytes=16))
    ph.add_access(DRSD("A", AccessMode.WRITE))
    ph.add_access(DRSD("B", AccessMode.READ, lo_off=-halo_lo, hi_off=halo_hi))
    phases = {1: ph}
    array_rows = {"A": n_rows, "B": n_rows}
    needed = needed_map(phases, new_bounds, array_rows)
    outgoing, incoming = plan_edges(old_bounds, needed, list(array_rows))

    # the oracle: per-row sets, every (src, dst) pair tested
    old_sets = [frozenset(owned_intervals(old_bounds, r))
                for r in range(n_ranks)]
    needed_sets = row_sets.needed_map_sets(phases, new_bounds, array_rows)
    oracle = row_sets.plan_sends_sets(old_sets, needed_sets,
                                      list(array_rows))
    owner = {g: r for r in range(n_ranks) for g in old_sets[r]}

    def stamp(name, g):
        return (g + 1) * (1 if name == "A" else -1) + owner[g] / 8

    cluster = Cluster(ClusterSpec(
        n_nodes=n_ranks, node=NodeSpec(speed=1e8), observe=True,
        network=NetworkSpec(latency=1e-5, bandwidth=1e8,
                            eager_threshold=1 << 20),
    ))
    group = Group(list(range(n_ranks)))
    final, posted = {}, {}

    def program(ep):
        me = group.rel(ep.rank)
        arrays = {name: ProjectedArray(name, (n_rows, 2))
                  for name in array_rows}
        mine = owned_intervals(old_bounds, me)
        for name, arr in arrays.items():
            arr.hold(mine)
            for g in mine:
                arr.row(g)[:] = stamp(name, g)
        yield from redistribute(ep, group, old_bounds, new_bounds, arrays,
                                needed, MemCostModel())
        reg = cluster.obs.rank_registry(ep.rank)
        posted[me] = (reg.counter_value("mpi.messages_sent"),
                      reg.counter_value("mpi.messages_received"))
        final[me] = arrays
        # the tag was consumed by everyone: the next collective matches
        got = yield from allgather(ep, group, me)
        assert got == list(range(n_ranks))

    run_spmd(cluster, program)

    for me in range(n_ranks):
        assert posted[me] == (len(outgoing.get(me, ())),
                              len(incoming.get(me, ()))), me
        assert set(outgoing.get(me, ())) == \
            {dst for src, dst in oracle if src == me}
        assert set(incoming.get(me, ())) == \
            {src for src, dst in oracle if dst == me}
        for name in array_rows:
            arr = final[me][name]
            assert set(arr.held_rows()) == needed_sets[me][name], (me, name)
            arrived = {g for (src, dst), entry in oracle.items() if dst == me
                       for g in entry.get(name, ())}
            for g in needed_sets[me][name]:
                want = stamp(name, g) if g in old_sets[me] | arrived else 0.0
                assert np.all(arr.row(g) == want), (me, name, g)


def test_removal_messages_per_rank_do_not_grow_with_the_world():
    """A block redistribution talks to neighbouring owners only, so the
    removal recipe's wire messages per rank grow with log(n) (the
    dissemination allgathers), not with n: under 2x from 16 to 64
    ranks (2.07x with the dense n·(n-1) exchange)."""
    per_rank = {}
    for ranks in (16, 64):
        result, cluster = run_removal(
            RemovalScenario(n_nodes=ranks, n=4 * ranks, iters=16,
                            load_cycle=2, n_cp=2),
            observe=False,
        )
        assert [ev.kind for ev in result.events] == ["redistribute", "drop"]
        per_rank[ranks] = cluster.network.n_messages / ranks
    assert per_rank[64] < 2 * per_rank[16], per_rank
