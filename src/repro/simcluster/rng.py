"""Deterministic random streams: named generators and keyed hashes.

Each stochastic element of the simulator (a CPU's slice jitter, the
``dmpi_ps`` sampling phases) draws from its own named stream derived
from the cluster seed, independent of creation order.  A draw that must
not depend on who makes it (particle shed fractions, farm job costs and
results) is :func:`mix64` of its key instead: the counter-based design
of Salmon et al., "Parallel Random Numbers" (SC'11).
"""

from __future__ import annotations

import numpy as np

__all__ = ["StreamRegistry", "mix64", "unit_doubles"]


def mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array (wrapping arithmetic):
    a stable, well-mixed 64-bit hash per element."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def unit_doubles(h: np.ndarray) -> np.ndarray:
    """The uint64 hashes ``h`` as doubles in ``[0, 1)``: their top 53
    bits, scaled by ``2**-53``."""
    return (h >> np.uint64(11)).view(np.int64) * 2.0 ** -53  # int64 converts faster


class StreamRegistry:
    """Independent :class:`numpy.random.Generator` streams keyed by name:
    the same (seed, name) pair always yields the same sequence."""

    def __init__(self, seed: int = 0):
        self._seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the stream for ``name``, creating it on first use."""
        gen = self._streams.get(name)
        if gen is None:
            ss = np.random.SeedSequence(self._seed, spawn_key=(_stable_hash(name),))
            gen = np.random.default_rng(ss)
            self._streams[name] = gen
        return gen

    def __contains__(self, name: str) -> bool:
        return name in self._streams


def _stable_hash(name: str) -> int:
    """A hash of ``name`` stable across processes (unlike ``hash``)."""
    h = 2166136261
    for byte in name.encode("utf-8"):
        h = ((h ^ byte) * 16777619) & 0xFFFFFFFF
    return h
