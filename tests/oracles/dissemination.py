"""Dict-merge reference for ``repro.mpi.collectives.allgather_dissemination``.

The library keeps what a member has gathered as two lists in origin
order and merges each round's incoming run with one slice; this is the
form it replaced: a dict ``origin -> (value, item_nbytes)``, copied
whole for the wire every round and merged item by item.  Kept so
``tests/test_collectives.py`` can check the two give the same result
and put the same messages (sizes, times) on the wire.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.errors import MPIError
from repro.mpi.collectives import _check_member, _san_enter
from repro.mpi.comm import Endpoint
from repro.mpi.datatypes import HEADER_BYTES, payload_nbytes
from repro.mpi.group import Group


def allgather_dissemination_dict(ep: Endpoint, group: Group, value: Any) -> Generator:
    """``allgather_dissemination`` as a dict merge (same tag, same
    partners, same message sizes)."""
    me = _check_member(ep, group)
    n = group.size
    tag = group.next_tag(me)
    _san_enter(ep, group, tag, "allgather_dissemination")
    # a dict item with an int key contributes exactly
    # payload_nbytes(v) + 24 - HEADER_BYTES (see datatypes.py)
    item = payload_nbytes(value) + 24 - HEADER_BYTES
    have: dict[int, tuple[Any, int]] = {me: (value, item)}
    size = HEADER_BYTES + item
    k = 1
    while k < n:
        dst = group.world((me + k) % n)
        src = group.world((me - k) % n)
        incoming, _ = yield from ep.sendrecv(
            # wire snapshot: the receiver must not observe keys merged
            # into `have` after this yield
            dst, tag, dict(have), src, tag, nbytes=size
        )
        for key, pair in incoming.items():
            # overlaps happen for non-power-of-two n; a replayed key
            # carries the same origin value
            if key not in have:
                have[key] = pair
                size += pair[1]
        k *= 2
    if len(have) != n:
        raise MPIError(f"dissemination allgather incomplete: {len(have)}/{n}")
    return [have[i][0] for i in range(n)]
