"""Property tests for the interval data plane (hypothesis).

Three layers, each checked row-for-row against a naive set reference:

* the :class:`IntervalSet` algebra itself (union/intersect/subtract/
  clip/contains/iteration) on randomized row sets;
* DRSD materialization: ``needed_intervals`` vs ``rows_needed`` on
  randomized bounds and offsets, including ``step > 1``;
* redistribution planning: interval ``needed_map`` and the interval
  send rule vs the retained set-based oracle
  (``tests/oracles/row_sets.py``) on randomized multi-rank transitions
  (including removed ranks and crash-recovery row-set bounds).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.drsd import DRSD, AccessMode
from repro.core.intervals import IntervalSet
from repro.core.redistribute import needed_map, owned_intervals, plan_sends
from repro.analysis.plancheck import accesses_to_phases
from tests.oracles import row_sets as reference

row_sets = st.sets(st.integers(min_value=0, max_value=80), max_size=40)


# ---------------------------------------------------------------------------
# algebra vs set reference
# ---------------------------------------------------------------------------
@given(a=row_sets, b=row_sets)
@settings(max_examples=200, deadline=None)
def test_algebra_matches_sets(a, b):
    ia, ib = IntervalSet.from_rows(a), IntervalSet.from_rows(b)
    assert ia | ib == a | b
    assert ia & ib == a & b
    assert ia - ib == a - b
    assert ia.isdisjoint(ib) == a.isdisjoint(b)
    assert ia.issuperset(ib) == (a >= b)
    assert list(ia) == sorted(a)
    assert len(ia) == len(a)
    assert bool(ia) == bool(a)


@given(a=row_sets, lo=st.integers(-5, 90), width=st.integers(0, 40))
@settings(max_examples=200, deadline=None)
def test_clip_and_contains_match_sets(a, lo, width):
    ia = IntervalSet.from_rows(a)
    hi = lo + width
    assert ia.clip(lo, hi) == {g for g in a if lo <= g <= hi}
    for g in range(min(a, default=0) - 2, max(a, default=0) + 3):
        assert (g in ia) == (g in a)


@given(a=row_sets)
@settings(max_examples=100, deadline=None)
def test_canonical_form(a):
    """Spans are sorted, disjoint, non-adjacent — the canonical form
    that makes __eq__/__hash__ structural."""
    ia = IntervalSet.from_rows(a)
    spans = ia.spans
    assert all(lo <= hi for lo, hi in spans)
    assert all(spans[i][1] + 1 < spans[i + 1][0] for i in range(len(spans) - 1))
    assert hash(ia) == hash(IntervalSet.from_rows(sorted(a)))
    assert ia == set(a)


@given(lo=st.integers(0, 50), width=st.integers(0, 60), step=st.integers(1, 7))
@settings(max_examples=150, deadline=None)
def test_strided_path_matches_range(lo, width, step):
    hi = lo + width
    assert IntervalSet.from_strided(lo, hi, step) == set(range(lo, hi + 1, step))
    if step == 1:
        assert IntervalSet.from_strided(lo, hi, step).n_spans == 1


def test_from_bounds_forms():
    assert IntervalSet.from_bounds(None) == set()
    assert IntervalSet.from_bounds((3, 9)) == set(range(3, 10))
    assert IntervalSet.from_bounds(frozenset({1, 4, 5})) == {1, 4, 5}
    ivl = IntervalSet.span(2, 6)
    assert IntervalSet.from_bounds(ivl) is ivl


def test_empty_min_max_raise():
    with pytest.raises(ValueError):
        IntervalSet.empty().min_row
    with pytest.raises(ValueError):
        IntervalSet.empty().max_row


def test_immutable():
    ivl = IntervalSet.span(0, 3)
    with pytest.raises(AttributeError):
        ivl._spans = ()


# ---------------------------------------------------------------------------
# DRSD materialization
# ---------------------------------------------------------------------------
@given(
    s=st.integers(0, 40), e=st.integers(-2, 60), n_rows=st.integers(1, 50),
    lo_off=st.integers(-3, 3), hi_extra=st.integers(0, 4),
    step=st.integers(1, 4),
)
@settings(max_examples=200, deadline=None)
def test_needed_intervals_matches_rows_needed(s, e, n_rows, lo_off, hi_extra, step):
    acc = DRSD("A", AccessMode.READ, lo_off=lo_off, hi_off=lo_off + hi_extra,
               step=step)
    assert acc.needed_intervals(s, e, n_rows) == set(acc.rows_needed(s, e, n_rows))


# ---------------------------------------------------------------------------
# planning vs the set-based oracle
# ---------------------------------------------------------------------------
def _block_bounds(draw, n_ranks, n_rows):
    """A randomized bounds tuple: contiguous blocks, some ranks removed
    (None), optionally one crash-recovery row-set entry."""
    cuts = draw(st.lists(st.integers(0, n_rows - 1), min_size=n_ranks - 1,
                         max_size=n_ranks - 1))
    edges = [0] + sorted(cuts) + [n_rows]
    bounds = []
    for i in range(n_ranks):
        lo, hi = edges[i], edges[i + 1] - 1
        if hi < lo or draw(st.booleans()) and draw(st.booleans()):
            bounds.append(None)
        else:
            bounds.append((lo, hi))
    if n_ranks >= 2 and draw(st.booleans()):
        # crash recovery: a buddy adopts a dead rank's rows, so its old
        # ownership becomes an explicit (possibly non-contiguous) row
        # set; ownership stays a partition — the dead entry goes None
        dead = draw(st.integers(0, n_ranks - 1))
        buddy = (dead + 1 + draw(st.integers(0, n_ranks - 2))) % n_ranks
        merged = set()
        for r in (dead, buddy):
            if bounds[r] is not None:
                merged |= set(range(bounds[r][0], bounds[r][1] + 1))
        bounds[dead] = None
        bounds[buddy] = frozenset(merged) if merged else None
    return tuple(bounds)


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_plan_matches_set_oracle(data):
    n_ranks = data.draw(st.integers(2, 5))
    n_rows = data.draw(st.integers(4, 40))
    accesses = [
        DRSD("A", AccessMode.READWRITE,
             lo_off=data.draw(st.integers(-2, 0)),
             hi_off=data.draw(st.integers(0, 2))),
        DRSD("B", AccessMode.READ,
             lo_off=0, hi_off=0,
             step=data.draw(st.integers(1, 3))),
    ]
    phases = accesses_to_phases(accesses)
    array_rows = {"A": n_rows, "B": n_rows}
    old_bounds = _block_bounds(data.draw, n_ranks, n_rows)
    new_bounds = tuple(
        b if not isinstance(b, frozenset) else None
        for b in _block_bounds(data.draw, n_ranks, n_rows)
    )

    needed = needed_map(phases, new_bounds, array_rows)
    oracle_needed = reference.needed_map_sets(phases, new_bounds, array_rows)
    for rel in range(n_ranks):
        for name in array_rows:
            assert needed[rel][name] == oracle_needed[rel][name], (rel, name)
        assert owned_intervals(old_bounds, rel) == \
            reference.owned_rows_set(old_bounds, rel)

    # the send rule, both forms: its per-pair definition, and the
    # span-indexed whole-group derivation redistribute() executes
    oracle_sends = reference.plan_sends_sets(old_bounds, oracle_needed,
                                             list(array_rows))
    sends = plan_sends(old_bounds, needed, list(array_rows))
    for src in range(n_ranks):
        src_old = owned_intervals(old_bounds, src)
        for dst in range(n_ranks):
            if dst == src:
                continue
            dst_old = owned_intervals(old_bounds, dst)
            for name in array_rows:
                rows = (needed[dst][name] - dst_old) & src_old
                expect = oracle_sends.get((src, dst), {}).get(name, [])
                assert rows.to_rows() == expect, (src, dst, name)
                indexed = sends.get((src, dst), {}).get(name,
                                                        IntervalSet.empty())
                assert indexed.to_rows() == expect, (src, dst, name)
