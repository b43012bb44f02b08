"""Per-participant reference for ``repro.core.distribution.shares_to_blocks``.

The library finds every participant's last row with one vectorised
``np.searchsorted`` over all targets; this is the loop it replaced, one
scalar search per participant, kept so ``tests/test_distribution.py``
can check the two give the same bounds, int for int.
"""

from __future__ import annotations

import numpy as np


def shares_to_bounds_loop(n_rows: int, shares, row_weights=None) -> tuple:
    """The bounds ``shares_to_blocks(n_rows, shares, row_weights)`` has,
    computed one participant at a time (inputs assumed valid)."""
    shares = np.asarray(shares, dtype=float)
    shares = np.clip(shares, 0.0, None) / shares.sum()
    if row_weights is None:
        weights = np.ones(n_rows, dtype=float)
    else:
        weights = np.asarray(row_weights, dtype=float)
        if weights.sum() <= 0:
            weights = np.ones(n_rows, dtype=float)
    cum = np.concatenate([[0.0], np.cumsum(weights)])
    targets = np.cumsum(shares) * cum[-1]

    bounds: list = []
    lo = 0
    for r in range(shares.size):
        hi = int(np.searchsorted(cum[1:], targets[r] + 1e-9, side="right")) - 1
        hi = min(max(hi, lo - 1), n_rows - 1)
        if hi < lo:
            bounds.append(None)
        else:
            bounds.append((lo, hi))
            lo = hi + 1
    if lo <= n_rows - 1:
        nonempty = [i for i, b in enumerate(bounds) if b is not None]
        if nonempty:
            last = nonempty[-1]
            bounds[last] = (bounds[last][0], n_rows - 1)
        else:
            last = int(np.argmax(shares))
            bounds[last] = (lo, n_rows - 1)
    return tuple(bounds)
