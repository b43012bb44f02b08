"""Redistribution-friendly memory layouts (paper Section 4.1).

* :class:`ProjectedArray` — the paper's 2-d projection scheme for
  dense N-d arrays (vector of independently allocated extended rows).
* :class:`ContiguousArray` — the complete-reallocation baseline it is
  compared against (Figure 3).
* :class:`SparseMatrix` — sparse rows in CSR slabs, charged as the
  paper's vector of lists, with its iterator API and pack/unpack.
* :class:`AllocStats` / :class:`MemCostModel` — allocation traffic
  accounting and its conversion to CPU work.
"""

from .allocator import AllocStats, MemCostModel
from .contiguous import ContiguousArray
from .dense import ProjectedArray
from .sparse import SparseIterator, SparseMatrix

__all__ = [
    "AllocStats",
    "MemCostModel",
    "ProjectedArray",
    "ContiguousArray",
    "SparseMatrix",
    "SparseIterator",
]
