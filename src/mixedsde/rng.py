"""Splittable random streams keyed by (seed, stream ids).

Every stochastic routine in the package draws from a Generator obtained
here, so independent streams are provably disjoint (SeedSequence spawn
keys) and every result is a pure function of (seed, key).
"""

from __future__ import annotations

import numpy as np

from .grid import _integer


def stream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream identified by (seed, *key); seed is an integer >= 0 (grid._integer)."""
    ss = np.random.SeedSequence(entropy=_integer("seed", seed, low=0), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(ss))
