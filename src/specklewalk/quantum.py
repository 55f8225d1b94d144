"""Heralded single-photon detection statistics at two output modes.

A heralded photon follows the classical field: given the output field of
the masked input, the probability that the photon lands in target mode X
and is collected is

    q_X = collection_efficiency * |E_out[X]|^2 / sum_m |E_out[m]|^2.

Counting over an acquisition is reduced to per-trigger probabilities.
With trigger count n_T ~ Poisson(trigger_rate * acquisition_time):

  * twofold T-X coincidences: p_X = heralding_efficiency * q_X plus an
    accidental term dark_rate * coincidence_window, capped at 1
    (``twofold_probability``);
  * threefold T-A-B coincidences: genuine triples come only from double
    pairs (mean double_pair_mean extra pairs per heralding window), so
    p_AB = double_pair_mean * heralding_efficiency^2 * q_A * q_B plus
    accidental cross terms between each genuine arm and a dark count.

Counts are drawn Poisson at means n_T * p and assembled by additive
thinning (n_AT = n_ABT + extra), then clipped to n_T, which keeps the
orderings a CountRecord checks. It does not keep n_AT + n_BT + n_ABT <=
n_T: the twofolds are drawn apart, not as exclusive outcomes of one
trigger, and ``estimate_state`` refuses such counts with
``StatisticsError``. Singles at A and B are the coincident clicks plus
dark counts over the full acquisition; pairs whose trigger went
undetected are not modeled because trigger_rate is the detected trigger
rate.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Tuple

import numpy as np

from .errors import (ConfigError, DegenerateFieldError, StatisticsError, require_finite, require_integer,
                     require_nonnegative, require_probability)
from .medium import output_intensities
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
        require_finite(**asdict(self))
        require_nonnegative(trigger_rate=self.trigger_rate, dark_rate=self.dark_rate, double_pair_mean=self.double_pair_mean)
        require_probability(heralding_efficiency=self.heralding_efficiency, collection_efficiency=self.collection_efficiency)
        for name, value in (("coincidence_window", self.coincidence_window), ("acquisition_time", self.acquisition_time)):
            if not value > 0:
                raise ConfigError(f"{name} must be positive, got {value!r}")


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
        require_integer(0, **asdict(self))
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
        require_probability(p00=self.p00, p01=self.p01, p10=self.p10, p11=self.p11)
        total = self.p00 + self.p01 + self.p10 + self.p11
        if abs(total - 1.0) > 1e-12:
            raise ConfigError(f"probabilities must sum to 1 within 1e-12, got {total!r}")
        require_nonnegative(d_mag=self.d_mag)
        if self.d_mag > np.sqrt(self.p01 * self.p10) + 1e-12:
            raise ConfigError("coherence magnitude exceeds the positivity bound sqrt(p01*p10)")


def mode_probabilities(e_out: np.ndarray, targets: Tuple[int, int],
                       collection_efficiency: float) -> Tuple[float, float]:
    """Collected single-photon probabilities at the two target modes of the output field ``e_out``.

    ``e_out`` is the field at every output mode, ``propagate(sm, apply_mask(mask))``.
    ``targets`` must hold exactly two indices.
    """
    try:
        target_a, target_b = targets
    except (TypeError, ValueError):
        raise ConfigError(f"targets must hold exactly two indices, got {targets!r}") from None
    intensities, total = output_intensities(e_out, target_a, target_b)
    require_probability(collection_efficiency=collection_efficiency)
    if total <= 0.0:
        raise DegenerateFieldError("output field carries zero total power")
    q_a = collection_efficiency * float(intensities[target_a]) / total
    q_b = collection_efficiency * float(intensities[target_b]) / total
    return q_a, q_b


def twofold_probability(q, cfg: SourceConfig):
    """Per-trigger probability of a T-X coincidence at a mode whose collected photon probability is ``q``.

    min(heralding_efficiency * q + dark_rate * coincidence_window, 1): the
    heralded photon detected there, plus an accidental dark count in the
    coincidence window. ``q`` may be an array, one entry per mode.
    """
    return np.minimum(cfg.heralding_efficiency * q + cfg.dark_rate * cfg.coincidence_window, 1.0)


def draw_triggers(cfg: SourceConfig, seed: int) -> Tuple[int, np.random.Generator]:
    """(n_T, gen): the trigger count, the first draw of ``simulate_counts`` for ``seed``, and its stream after it.

    ConfigError first when a Poisson mean that ``simulate_counts`` draws
    at is beyond the sampler. n_T reads no field, so a run draws it, with
    the bits ``simulate_counts`` will draw, before it has one.
    """
    rng.check_poisson_mean(max(cfg.trigger_rate, cfg.dark_rate) * cfg.acquisition_time, "trigger_rate or dark_rate")
    gen = rng.generator(seed, rng.COUNTS)
    return int(gen.poisson(cfg.trigger_rate * cfg.acquisition_time)), gen


def require_triggers(n_t: int) -> None:
    """Raise StatisticsError unless there are trigger counts to estimate probabilities from."""
    if n_t <= 0:
        raise StatisticsError("cannot estimate probabilities without trigger counts")


def simulate_counts(q_a: float, q_b: float, cfg: SourceConfig, seed: int) -> CountRecord:
    """Draw one acquisition of counts; deterministic per seed.

    Draw order is fixed: n_T, triples, extra twofolds (A then B), dark
    singles (A then B). The record passes CountRecord's checks, but
    n_AT + n_BT + n_ABT may exceed n_T, and ``estimate_state`` then
    raises ``StatisticsError``: the twofolds are not yet drawn as
    exclusive outcomes of each trigger.
    """
    require_probability(q_a=q_a, q_b=q_b)
    require_probability(**{"q_a + q_b": q_a + q_b})  # the photon lands in A or in B, never both
    n_t, gen = draw_triggers(cfg, seed)

    genuine_a = cfg.heralding_efficiency * q_a
    genuine_b = cfg.heralding_efficiency * q_b
    accidental = cfg.dark_rate * cfg.coincidence_window
    p_a, p_b = twofold_probability(q_a, cfg), twofold_probability(q_b, cfg)
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
    """Occupation probabilities from count ratios, coherence clamped to the positivity bound.

    p10 = n_AT / n_T, p01 = n_BT / n_T, p11 = n_ABT / n_T and p00 the rest.
    Raises ``StatisticsError`` without trigger counts, or when the
    coincidences n_AT + n_BT + n_ABT exceed n_T, which would leave p00 < 0.
    """
    require_triggers(counts.n_T)
    coincidences = counts.n_AT + counts.n_BT + counts.n_ABT
    if coincidences > counts.n_T:
        raise StatisticsError(f"coincidences n_AT + n_BT + n_ABT = {coincidences} exceed the {counts.n_T} trigger counts")
    require_nonnegative(d_mag=d_mag)
    n_t = counts.n_T
    p10 = counts.n_AT / n_t
    p01 = counts.n_BT / n_t
    p11 = counts.n_ABT / n_t
    p00 = max(1.0 - p01 - p10 - p11, 0.0)  # coincidences that use up every trigger can round to -3e-17

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
