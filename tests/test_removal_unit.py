"""Unit tests for the drop decision logic (paper Section 4.4)."""

import pytest

from repro.config import RuntimeSpec
from repro.core.commcost import CommCostModel, NearestNeighbor, NoComm
from repro.core.removal import evaluate_drop
from repro.errors import DistributionError

MODEL = CommCostModel(3e-5, 4e-9, 75e-6, 8e-8, 1e8)
SPEEDS4 = [1e8] * 4


def decide(loads, measured, *, spec=None, total_work=3e7, patterns=None,
           speeds=None):
    return evaluate_drop(
        loads, speeds or SPEEDS4, total_work,
        patterns or [NearestNeighbor(row_nbytes=16384)],
        MODEL, n_rows=1024, measured_max=measured,
        spec=spec or RuntimeSpec(),
    )


def test_drop_when_prediction_beats_measurement():
    # unloaded-only config: 3 nodes at 1e8 -> ~0.10 s/cycle predicted
    d = decide([4, 1, 1, 1], measured=0.50)
    assert d.drop
    assert d.removed == (0,)
    assert d.predicted_time < 0.5
    assert d.keep_shares is not None and len(d.keep_shares) == 3


def test_no_drop_when_measurement_is_fine():
    d = decide([2, 1, 1, 1], measured=0.08)
    assert not d.drop
    # the prediction is still reported for inspection
    assert d.predicted_time > 0


def test_no_drop_without_loaded_nodes():
    d = decide([1, 1, 1, 1], measured=10.0)
    assert not d.drop
    assert d.removed == ()


def test_no_drop_when_everyone_is_loaded():
    d = decide([2, 2, 3, 2], measured=10.0)
    assert not d.drop


def test_removal_disabled_by_spec():
    d = decide([4, 1, 1, 1], measured=10.0,
               spec=RuntimeSpec(allow_removal=False))
    assert not d.drop


def test_drop_margin_semantics():
    """margin multiplies the prediction: > 1 demands a bigger win
    before dropping (conservative), < 1 forces drops (the Figure 6
    forced-drop runs use 1e-9)."""
    base = decide([4, 1, 1, 1], measured=0.50)
    assert base.drop
    strict = decide([4, 1, 1, 1], measured=0.50,
                    spec=RuntimeSpec(drop_margin=10.0))
    assert not strict.drop
    forced = decide([2, 1, 1, 1], measured=1e-6,
                    spec=RuntimeSpec(drop_margin=1e-9))
    assert forced.drop


def test_multiple_loaded_nodes_all_removed():
    d = decide([4, 1, 3, 1], measured=0.50)
    assert d.drop
    assert d.removed == (0, 2)


def test_partial_removal_off_by_default_removes_all_loaded():
    """There is no partial removal: a mildly loaded node (load 2) goes
    with the heavily loaded one (load 8)."""
    d = decide([8, 1, 2, 1], measured=0.60)
    assert d.drop
    assert d.removed == (0, 2)


def test_length_mismatch_raises():
    with pytest.raises(DistributionError):
        evaluate_drop([1, 2], [1e8], 1e7, [NoComm()], MODEL, 100, 1.0,
                      RuntimeSpec())
