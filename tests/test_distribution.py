"""Tests for block distributions and share-to-block conversion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distribution import (
    BlockDistribution,
    shares_to_blocks,
)
from repro.errors import DistributionError
from tests.oracles.shares_blocks import shares_to_bounds_loop


def test_even_block_distribution():
    d = BlockDistribution.even(10, 3)
    assert d.bounds == ((0, 3), (4, 6), (7, 9))
    assert d.count_of(0) == 4
    assert list(d.rows_of(1)) == [4, 5, 6]
    assert d.owner_of(0) == 0 and d.owner_of(9) == 2


def test_even_with_more_parts_than_rows():
    d = BlockDistribution.even(2, 4)
    assert d.bounds == ((0, 0), (1, 1), None, None)
    assert d.count_of(2) == 0
    assert list(d.rows_of(3)) == []


def test_block_validation():
    with pytest.raises(DistributionError):
        BlockDistribution(10, ((0, 4), (6, 9)))  # gap
    with pytest.raises(DistributionError):
        BlockDistribution(10, ((0, 4), (3, 9)))  # overlap
    with pytest.raises(DistributionError):
        BlockDistribution(10, ((0, 8),))  # incomplete
    with pytest.raises(DistributionError):
        BlockDistribution(10, ((0, 10),))  # out of range
    with pytest.raises(DistributionError):
        BlockDistribution(0, ())


def test_owner_array_matches_owner_of():
    d = BlockDistribution(7, ((0, 2), None, (3, 6)))
    owners = d.owner_array()
    for row in range(7):
        assert owners[row] == d.owner_of(row)


def test_owner_of_out_of_range():
    d = BlockDistribution.even(5, 2)
    with pytest.raises(DistributionError):
        d.owner_of(5)


def test_shares_to_blocks_uniform_weights():
    d = shares_to_blocks(100, [0.25, 0.5, 0.25])
    counts = [d.count_of(r) for r in range(3)]
    assert sum(counts) == 100
    assert counts[1] > counts[0] and counts[1] > counts[2]
    assert abs(counts[0] - 25) <= 1 and abs(counts[1] - 50) <= 1


def test_shares_to_blocks_weighted_rows():
    # first half of the rows carries 10x the work: an equal-share split
    # must give the first participant far fewer rows
    weights = np.ones(100)
    weights[:50] = 10.0
    d = shares_to_blocks(100, [0.5, 0.5], row_weights=weights)
    c0, c1 = d.count_of(0), d.count_of(1)
    assert c0 + c1 == 100
    assert c0 < 35  # ~27.5 rows carry half the work
    # work actually carried is near-even
    w0 = weights[list(d.rows_of(0))].sum()
    assert w0 == pytest.approx(weights.sum() / 2, rel=0.05)


def test_shares_to_blocks_zero_share_gets_no_rows():
    d = shares_to_blocks(10, [0.5, 0.0, 0.5])
    assert d.count_of(1) == 0
    assert d.count_of(0) + d.count_of(2) == 10


def test_shares_to_blocks_validation():
    with pytest.raises(DistributionError):
        shares_to_blocks(10, [])
    with pytest.raises(DistributionError):
        shares_to_blocks(10, [-0.5, 1.5])
    with pytest.raises(DistributionError):
        shares_to_blocks(10, [0.0, 0.0])
    with pytest.raises(DistributionError):
        shares_to_blocks(10, [1.0], row_weights=np.ones(5))


def test_paper_cg_distribution_shape():
    """The 4-node CG narrative: shares 2/7,2/7,2/7,1/7 over 14000 rows."""
    d = shares_to_blocks(14000, [2 / 7, 2 / 7, 2 / 7, 1 / 7])
    counts = [d.count_of(r) for r in range(4)]
    assert sum(counts) == 14000
    assert counts[3] == pytest.approx(2000, abs=2)
    for c in counts[:3]:
        assert c == pytest.approx(4000, abs=2)


@given(
    n_rows=st.integers(1, 200),
    shares=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
)
@settings(max_examples=100, deadline=None)
def test_shares_to_blocks_always_tiles(n_rows, shares):
    if sum(shares) <= 0:
        shares = [s + 0.1 for s in shares]
    d = shares_to_blocks(n_rows, shares)
    assert sum(d.count_of(r) for r in range(d.n_parts)) == n_rows
    owners = d.owner_array()
    # owners non-decreasing (blocks in rank order)
    assert np.all(np.diff(owners) >= 0)


@st.composite
def shares_and_weights(draw):
    n_rows = draw(st.integers(1, 150))
    shares = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=1, max_size=12))
    if sum(shares) <= 0:
        shares[draw(st.integers(0, len(shares) - 1))] = 1.0
    weights = draw(st.one_of(st.none(), st.lists(
        st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
        min_size=n_rows, max_size=n_rows)))
    return n_rows, shares, weights


@given(shares_and_weights())
@settings(max_examples=300, deadline=None)
def test_shares_to_blocks_matches_per_participant_loop(case):
    """The one vectorised search gives the bounds of the old scalar
    search per participant, int for int (zero shares, zero-weight rows
    and all-zero weights included)."""
    n_rows, shares, weights = case
    got = shares_to_blocks(n_rows, shares, weights).bounds
    assert got == shares_to_bounds_loop(n_rows, shares, weights)
    assert all(type(v) is int for b in got if b is not None for v in b)


@given(
    n_rows=st.integers(1, 120),
    n_parts=st.integers(1, 10),
)
@settings(max_examples=100, deadline=None)
def test_even_partition_is_balanced(n_rows, n_parts):
    d = BlockDistribution.even(n_rows, n_parts)
    counts = [d.count_of(r) for r in range(n_parts)]
    assert sum(counts) == n_rows
    assert max(counts) - min(counts) <= 1
