"""Seed-stream derivation.

All randomness in the package flows from explicit 64-bit seeds through
numpy's PCG64 bit generator. Independent sub-streams are derived with
``SeedSequence(seed, spawn_key=path)``, so a (seed, stream-path) pair
always names the same stream, on every platform, in every process.

Stream paths used by the experiment harness (element 0 is the index):

==========  =============================================
path        consumer
==========  =============================================
0           medium seed (when no explicit seed set)
(0, block)  medium generation, one stream per block of
            ``medium.ROW_BLOCK`` (64) output rows
1           calibration reference input (when not set)
(2, block)  calibration shot noise, one stream per block of
            ``medium.ROW_BLOCK`` output rows
3           random baseline mask
4           heralded-count simulation
5           fringe scan sampling
6           focus-scan count sampling
==========  =============================================
"""

from __future__ import annotations

import numpy as np

MEDIUM = 0
REFERENCE = 1
CALIBRATION_NOISE = 2
RANDOM_MASK = 3
COUNTS = 4
FRINGES = 5
FOCUS_SCAN = 6


def generator(seed: int, *path: int) -> np.random.Generator:
    """Return the PCG64 generator for stream ``path`` of ``seed``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=path)))


def child_seed(seed: int, *path: int) -> int:
    """Derive a 64-bit sub-seed; stable under the same (seed, path)."""
    state = np.random.SeedSequence(seed, spawn_key=path).generate_state(1, np.uint64)
    return int(state[0])
