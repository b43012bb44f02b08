"""Data distributions over the first array dimension (paper Section 2.1).

:class:`BlockDistribution` is the paper's *variable block*: a
contiguous (possibly empty, possibly unequal) row range per
participant.  This is what the balancer produces; ranges are derived
from target work shares and per-row weights (so unbalanced
computations like the particle simulation split by work, not by row
count).

Distributions are expressed in **relative rank** space (positions in
the active group), because Dyn-MPI reassigns ranks when nodes are
removed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import DistributionError

__all__ = ["BlockDistribution", "shares_to_blocks"]


@dataclass(frozen=True)
class BlockDistribution:
    """Variable block distribution: ``bounds[r] = (lo, hi)`` inclusive,
    or ``None`` for a participant with no rows."""

    n_rows: int
    bounds: tuple  # tuple[Optional[tuple[int, int]], ...]

    def __post_init__(self) -> None:
        if self.n_rows <= 0:
            raise DistributionError(f"n_rows must be positive, got {self.n_rows}")
        covered = 0
        prev_hi = -1
        for b in self.bounds:
            if b is None:
                continue
            lo, hi = b
            if not (0 <= lo <= hi < self.n_rows):
                raise DistributionError(f"bad block ({lo},{hi}) for {self.n_rows} rows")
            if lo != prev_hi + 1:
                raise DistributionError(
                    f"blocks must tile the rows contiguously; got lo={lo} after hi={prev_hi}"
                )
            prev_hi = hi
            covered += hi - lo + 1
        if covered != self.n_rows:
            raise DistributionError(
                f"blocks cover {covered} of {self.n_rows} rows"
            )

    @property
    def n_parts(self) -> int:
        return len(self.bounds)

    def rows_of(self, rel: int) -> range:
        b = self.bounds[rel]
        if b is None:
            return range(0)
        return range(b[0], b[1] + 1)

    def count_of(self, rel: int) -> int:
        b = self.bounds[rel]
        return 0 if b is None else b[1] - b[0] + 1

    def owner_of(self, row: int) -> int:
        if not (0 <= row < self.n_rows):
            raise DistributionError(f"row {row} out of range")
        for rel, b in enumerate(self.bounds):
            if b is not None and b[0] <= row <= b[1]:
                return rel
        raise DistributionError(f"row {row} is unowned (corrupt distribution)")

    def owner_array(self) -> np.ndarray:
        """owner_array()[row] -> relative owner rank (vectorized lookups)."""
        owners = np.empty(self.n_rows, dtype=np.int32)
        for rel, b in enumerate(self.bounds):
            if b is not None:
                owners[b[0]: b[1] + 1] = rel
        return owners

    @staticmethod
    def from_counts(counts: Sequence[int]) -> "BlockDistribution":
        """Consecutive blocks of ``counts[r]`` rows (none for a 0)."""
        bounds, lo = [], 0
        for cnt in counts:
            bounds.append((lo, lo + cnt - 1) if cnt else None)
            lo += cnt
        return BlockDistribution(lo, tuple(bounds))

    @staticmethod
    def even(n_rows: int, n_parts: int) -> "BlockDistribution":
        """The standard near-equal block distribution (the starting
        point of every run)."""
        if n_parts <= 0:
            raise DistributionError("need at least one participant")
        base, extra = divmod(n_rows, n_parts)
        return BlockDistribution.from_counts(
            [base + (r < extra) for r in range(n_parts)]
        )

    def __str__(self) -> str:  # pragma: no cover
        return f"Block({self.bounds})"


def shares_to_blocks(
    n_rows: int,
    shares: Sequence[float],
    row_weights: Optional[Sequence[float]] = None,
) -> BlockDistribution:
    """Convert target *work* shares into a variable block distribution.

    Splits the weighted-row prefix sum at the share boundaries, so each
    participant's rows carry approximately ``shares[r]`` of the total
    work.  ``row_weights`` defaults to uniform (then shares are row
    fractions).  Shares must be non-negative; zero-share participants
    get no rows.
    """
    shares = np.asarray(shares, dtype=float)
    if shares.ndim != 1 or shares.size == 0:
        raise DistributionError("shares must be a non-empty 1-d sequence")
    if np.any(shares < -1e-12):
        raise DistributionError(f"negative share in {shares}")
    total = shares.sum()
    if total <= 0:
        raise DistributionError("shares sum to zero")
    shares = np.clip(shares, 0.0, None) / total

    if row_weights is None:
        weights = np.ones(n_rows, dtype=float)
    else:
        weights = np.asarray(row_weights, dtype=float)
        if weights.shape != (n_rows,):
            raise DistributionError(
                f"row_weights must have shape ({n_rows},), got {weights.shape}"
            )
        if np.any(weights < 0):
            raise DistributionError("row weights must be non-negative")
        if weights.sum() <= 0:
            weights = np.ones(n_rows, dtype=float)

    cum = np.concatenate([[0.0], np.cumsum(weights)])
    total_w = cum[-1]
    targets = np.cumsum(shares) * total_w

    # per participant, the last row index whose cumulative weight stays
    # within its target
    his = np.searchsorted(cum[1:], targets + 1e-9, side="right") - 1
    bounds: list = []
    lo = 0
    for hi in his.tolist():
        hi = min(max(hi, lo - 1), n_rows - 1)
        if hi < lo:
            bounds.append(None)
        else:
            bounds.append((lo, hi))
            lo = hi + 1
    if lo <= n_rows - 1:
        # numerical slack: give the tail to the last non-empty holder,
        # or to the last positive-share participant if nobody got rows
        nonempty = [i for i, b in enumerate(bounds) if b is not None]
        if nonempty:
            last = nonempty[-1]
            bounds[last] = (bounds[last][0], n_rows - 1)
        else:
            last = int(np.argmax(shares))
            bounds[last] = (lo, n_rows - 1)
    return BlockDistribution(n_rows, tuple(bounds))
