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
            ``medium.ROW_BLOCK`` output rows; in order, the
            normals of the rows whose ppm * min(|r|^2 +
            |S|^2) reaches the Gaussian floor (every real
            part, row by row, then every imaginary part),
            then the Poisson counts of the other rows, one
            phase step at a time
3           random baseline mask
4           heralded-count simulation
5           fringe scan sampling
6           focus-scan count sampling
==========  =============================================
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, require_integer

MEDIUM = 0
REFERENCE = 1
CALIBRATION_NOISE = 2
RANDOM_MASK = 3
COUNTS = 4
FRINGES = 5
FOCUS_SCAN = 6

# largest Poisson mean numpy's sampler accepts (it raises ValueError above it)
POISSON_LAM_MAX = np.iinfo("l").max - 10.0 * np.sqrt(np.iinfo("l").max)


def generator(seed: int, *path: int) -> np.random.Generator:
    """Return the PCG64 generator for stream ``path`` of ``seed``; the seed and each path entry must be integers >= 0."""
    require_integer(0, seed=seed, **{f"stream path[{i}]": step for i, step in enumerate(path)})
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=path)))


def child_seed(seed: int, *path: int) -> int:
    """Derive a 64-bit sub-seed, the first word of stream ``path``'s seed sequence; stable under the same (seed, path)."""
    return int(generator(seed, *path).bit_generator.seed_seq.generate_state(1, np.uint64)[0])


def check_poisson_mean(largest: float, knob: str) -> None:
    """Raise ConfigError naming ``knob`` when the Poisson mean it sets, ``largest``, is NaN or beyond the sampler."""
    if not largest <= POISSON_LAM_MAX:
        raise ConfigError(f"{knob} gives a Poisson mean of {largest:.3g}, not within the sampler limit {POISSON_LAM_MAX:.3g}")
