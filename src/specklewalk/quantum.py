"""Heralded single-photon detection statistics at two output modes.

A heralded photon follows the classical field: given the output field of
the masked input, the probability that the photon lands in target mode X
and is collected is

    q_X = collection_efficiency * |E_out[X]|^2 / sum_m |E_out[m]|^2.

Counting over an acquisition is reduced to per-trigger probabilities.
With trigger count n_T ~ Poisson(trigger_rate * acquisition_time):

  * twofold T-X coincidences: p_X = heralding_efficiency * q_X plus an
    accidental term dark_rate * coincidence_window;
  * threefold T-A-B coincidences: genuine triples come only from double
    pairs (mean double_pair_mean extra pairs per heralding window), so
    p_AB = double_pair_mean * heralding_efficiency^2 * q_A * q_B plus
    accidental cross terms between each genuine arm and a dark count.

Counts are drawn Poisson at means n_T * p and assembled by additive
thinning (n_AT = n_ABT + extra), which enforces the ordering invariants
of a CountRecord by construction. Singles at A and B are the coincident
clicks plus dark counts over the full acquisition; pairs whose trigger
went undetected are not modeled because trigger_rate is the detected
trigger rate.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Tuple

import numpy as np

from .errors import ConfigError, DegenerateFieldError, DimensionError, StatisticsError, require_finite
from . import rng


@dataclass(frozen=True)
class SourceConfig:
    """Heralded-photon source, detection and timing parameters.

    Defaults reproduce the reference operating point: a detected trigger
    rate of 1.02e6 / s over a 3 hour acquisition (1.1e10 triggers), a
    heralding chain of 1.2e-3, collection of 0.426 at the target speckle
    grain (7% of the total output rate divided by the focused intensity
    fraction 0.164 of a 1024-mode conjugation mask), and a double-pair
    rate tuned for about one triple coincidence per acquisition.
    """

    trigger_rate: float = 1.02e6
    heralding_efficiency: float = 1.2e-3
    collection_efficiency: float = 0.426
    coincidence_window: float = 2.5e-9
    acquisition_time: float = 10800.0
    double_pair_mean: float = 0.05
    dark_rate: float = 0.0

    def __post_init__(self):
        require_finite(trigger_rate=self.trigger_rate, heralding_efficiency=self.heralding_efficiency,
                       collection_efficiency=self.collection_efficiency, coincidence_window=self.coincidence_window,
                       acquisition_time=self.acquisition_time, double_pair_mean=self.double_pair_mean,
                       dark_rate=self.dark_rate)
        if self.trigger_rate < 0 or self.dark_rate < 0 or self.double_pair_mean < 0:
            raise ConfigError("rates and double_pair_mean must be nonnegative")
        if not (0.0 <= self.heralding_efficiency <= 1.0):
            raise ConfigError(f"heralding_efficiency must lie in [0, 1], got {self.heralding_efficiency}")
        if not (0.0 <= self.collection_efficiency <= 1.0):
            raise ConfigError(f"collection_efficiency must lie in [0, 1], got {self.collection_efficiency}")
        if not (self.coincidence_window > 0):
            raise ConfigError("coincidence_window must be positive")
        if not (self.acquisition_time > 0):
            raise ConfigError("acquisition_time must be positive")


@dataclass(frozen=True)
class CountRecord:
    """Singles, twofold and threefold counts over one acquisition."""

    n_T: int
    n_A: int
    n_B: int
    n_AT: int
    n_BT: int
    n_ABT: int

    def __post_init__(self):
        for name, value in asdict(self).items():
            if value < 0:
                raise ConfigError(f"count {name} must be nonnegative, got {value}")
        if self.n_ABT > min(self.n_AT, self.n_BT):
            raise ConfigError("triples cannot exceed either twofold count")
        if self.n_AT > min(self.n_A, self.n_T) or self.n_BT > min(self.n_B, self.n_T):
            raise ConfigError("twofold counts cannot exceed their singles")


@dataclass(frozen=True)
class TwoModeState:
    """Occupation probabilities and coherence magnitude of the two-mode state.

    Convention: p10 is the probability of the photon in mode A (state
    |10>), p01 in mode B. Binomial standard errors accompany each
    probability; d_clamped records whether the supplied coherence had to
    be reduced to the positivity bound sqrt(p01 * p10).
    """

    p00: float
    p01: float
    p10: float
    p11: float
    d_mag: float
    p00_err: float = 0.0
    p01_err: float = 0.0
    p10_err: float = 0.0
    p11_err: float = 0.0
    d_clamped: bool = False

    def __post_init__(self):
        probs = (self.p00, self.p01, self.p10, self.p11)
        if any(not (0.0 <= p <= 1.0) for p in probs):
            raise ConfigError(f"probabilities must lie in [0, 1], got {probs}")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise ConfigError(f"probabilities must sum to 1 within 1e-12, got {sum(probs)!r}")
        if self.d_mag < 0.0:
            raise ConfigError("coherence magnitude must be nonnegative")
        if self.d_mag > np.sqrt(self.p01 * self.p10) + 1e-12:
            raise ConfigError("coherence magnitude exceeds the positivity bound sqrt(p01*p10)")


def mode_probabilities(e_out: np.ndarray, targets: Tuple[int, int],
                       collection_efficiency: float) -> Tuple[float, float]:
    """Collected single-photon probabilities at the two target modes of the output field ``e_out``.

    ``e_out`` is the field at every output mode, ``propagate(sm, apply_mask(mask))``.
    """
    field = np.asarray(e_out)
    if field.ndim != 1:
        raise DimensionError(f"output field must be 1-D, got shape {field.shape}")
    for target in targets:
        if not 0 <= target < field.shape[0]:
            raise DimensionError(f"target index {target} outside output range [0, {field.shape[0]})")
    if not (0.0 <= collection_efficiency <= 1.0):
        raise ConfigError(f"collection_efficiency must lie in [0, 1], got {collection_efficiency}")
    intensities = np.abs(field) ** 2
    total = float(intensities.sum())
    if total <= 0.0:
        raise DegenerateFieldError("output field carries zero total power")
    target_a, target_b = targets
    q_a = collection_efficiency * float(intensities[target_a]) / total
    q_b = collection_efficiency * float(intensities[target_b]) / total
    return q_a, q_b


def interfere(a_a: complex, a_b: complex, phi: float) -> Tuple[float, float]:
    """Balanced lossless splitter: ports |a_A +/- e^{i phi} a_B|^2 / 2.

    Conserves probability exactly: p1 + p2 = |a_A|^2 + |a_B|^2.
    """
    shifted = a_b * np.exp(1j * phi)
    p1 = abs(a_a + shifted) ** 2 / 2.0
    p2 = abs(a_a - shifted) ** 2 / 2.0
    return float(p1), float(p2)


def simulate_counts(q_a: float, q_b: float, cfg: SourceConfig, seed: int) -> CountRecord:
    """Draw one acquisition of counts; deterministic per seed.

    Draw order is fixed: n_T, triples, extra twofolds (A then B), dark
    singles (A then B).
    """
    if not (0.0 <= q_a and 0.0 <= q_b):
        raise ConfigError("mode probabilities must be nonnegative")
    if q_a + q_b > 1.0:
        raise ConfigError(f"q_A + q_B must not exceed 1, got {q_a + q_b}")
    rng.check_poisson_mean(max(cfg.trigger_rate, cfg.dark_rate) * cfg.acquisition_time, "trigger_rate or dark_rate")
    gen = rng.generator(seed, rng.COUNTS)

    n_t = int(gen.poisson(cfg.trigger_rate * cfg.acquisition_time))

    genuine_a = cfg.heralding_efficiency * q_a
    genuine_b = cfg.heralding_efficiency * q_b
    accidental = cfg.dark_rate * cfg.coincidence_window
    p_a = min(genuine_a + accidental, 1.0)
    p_b = min(genuine_b + accidental, 1.0)
    p_ab = (cfg.double_pair_mean * cfg.heralding_efficiency ** 2 * q_a * q_b
            + genuine_a * accidental + genuine_b * accidental + accidental ** 2)
    p_ab = min(p_ab, p_a, p_b)

    n_abt = int(gen.poisson(n_t * p_ab))
    n_at = n_abt + int(gen.poisson(n_t * (p_a - p_ab)))
    n_bt = n_abt + int(gen.poisson(n_t * (p_b - p_ab)))
    # Poisson tails could in principle overshoot the trigger count
    n_at = min(n_at, n_t)
    n_bt = min(n_bt, n_t)
    n_abt = min(n_abt, n_at, n_bt)

    dark_singles = cfg.dark_rate * cfg.acquisition_time
    n_a = n_at + int(gen.poisson(dark_singles))
    n_b = n_bt + int(gen.poisson(dark_singles))
    return CountRecord(n_T=n_t, n_A=n_a, n_B=n_b, n_AT=n_at, n_BT=n_bt, n_ABT=n_abt)


def estimate_state(counts: CountRecord, d_mag: float) -> TwoModeState:
    """Occupation probabilities from count ratios, coherence clamped to the positivity bound."""
    if counts.n_T <= 0:
        raise StatisticsError("cannot estimate probabilities without trigger counts")
    if d_mag < 0.0 or not np.isfinite(d_mag):
        raise ConfigError(f"coherence magnitude must be finite and nonnegative, got {d_mag}")
    n_t = counts.n_T
    p10 = counts.n_AT / n_t
    p01 = counts.n_BT / n_t
    p11 = counts.n_ABT / n_t
    p00 = 1.0 - p01 - p10 - p11

    def binom_err(p: float) -> float:
        return float(np.sqrt(max(p * (1.0 - p), 0.0) / n_t))

    bound = float(np.sqrt(p01 * p10))
    clamped = d_mag > bound
    return TwoModeState(
        p00=p00, p01=p01, p10=p10, p11=p11,
        d_mag=min(d_mag, bound),
        p00_err=binom_err(p00), p01_err=binom_err(p01),
        p10_err=binom_err(p10), p11_err=binom_err(p11),
        d_clamped=clamped,
    )
