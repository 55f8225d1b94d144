"""Scattering-matrix measurement by phase-stepping against an internal reference.

The medium is probed one input mode at a time while a fixed reference
input illuminates it continuously, producing a static reference speckle
r_m at every output. Stepping the probe phase through K >= 3 equally
spaced values theta_j = 2*pi*j/K records

    I_mn(theta_j) = |r_m + exp(i theta_j) S_mn|^2
                  = |r_m|^2 + |S_mn|^2 + 2 Re(conj(r_m) S_mn exp(i theta_j))

and the first discrete Fourier coefficient of that intensity sequence,

    S_hat_mn = (1/K) * sum_j I_mn(theta_j) * exp(-i theta_j),

equals conj(r_m) * S_mn exactly in the noiseless case (the DC term and
the conjugate sideband cancel over any K >= 3). Each row of the estimate
therefore carries an unknown factor conj(r_m). The factor is left in
place: phase-only conjugation masks depend only on arg of the row, where
it contributes a global per-target offset, so focusing through the
estimate matches focusing through the true matrix.

Without shot noise the estimate is computed from that closed form,
conj(r_m) * S_mn, with no phase steps at all.

Shot noise is modeled as Poisson photon counting on every intensity
sample, with photons_per_measurement photons per unit intensity. The
noisy measurement runs in blocks of ROW_BLOCK output rows. Block b draws
its counts from its own stream, (CALIBRATION_NOISE, b) in ``rng``, so
the estimate's bytes do not depend on how many worker threads run the
blocks. The intensities use real arithmetic, and for the standard K = 4
sequence the phase factors exp(i theta_j) are the exact (1, i, -1, -i).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigError, DimensionError, require_finite
from .medium import ROW_BLOCK, ScatteringMatrix, propagate
from .slm import TWO_PI, apply_mask, random_mask
# block helpers are called through their module: perfbench/tracing.py wraps the names
# imported here, and its span stack must not be touched from worker threads
from . import medium, rng

# largest Poisson mean numpy's sampler accepts (it raises ValueError above it)
_POISSON_LAM_MAX = np.iinfo("l").max - 10.0 * np.sqrt(np.iinfo("l").max)


@dataclass(frozen=True)
class CalibrationConfig:
    phase_steps: int = 4
    photons_per_measurement: Optional[float] = None  # None means noiseless
    reference_seed: int = 1
    noise_seed: int = 2

    def __post_init__(self):
        if self.phase_steps < 3:
            raise ConfigError(f"phase_steps must be >= 3 to separate amplitude, phase and offset, got {self.phase_steps}")
        if self.photons_per_measurement is not None:
            require_finite(photons_per_measurement=self.photons_per_measurement)
            if not self.photons_per_measurement > 0:
                raise ConfigError("photons_per_measurement must be positive or None for noiseless")

    @property
    def noiseless(self) -> bool:
        return self.photons_per_measurement is None


@dataclass(frozen=True)
class SmEstimate:
    """Measured matrix, known only up to one complex factor per output row."""

    matrix: ScatteringMatrix
    row_reference_note: str
    flagged_rows: Tuple[int, ...] = ()


def reference_field(n_in: int, cfg: CalibrationConfig) -> np.ndarray:
    """The fixed unit-amplitude reference input held during probing."""
    return apply_mask(random_mask(n_in, cfg.reference_seed))


def measure_sm(s_true: ScatteringMatrix, cfg: CalibrationConfig) -> SmEstimate:
    """Phase-step every input mode against the static reference speckle."""
    reference = propagate(s_true, reference_field(s_true.n_in, cfg))  # r_m per output
    if cfg.noiseless:
        estimate = np.conj(reference)[:, None] * s_true.matrix
    else:
        estimate = _measure_noisy(s_true, reference, cfg)

    flagged = np.nonzero(np.abs(reference) == 0.0)[0]
    if flagged.size:
        estimate[flagged, :] = 0.0
    note = "rows scaled by conj(r_m) of the internal reference speckle; arg-only consumers are unaffected"
    if flagged.size:
        note += f"; zero-reference rows zeroed: {flagged.tolist()}"
    return SmEstimate(
        matrix=ScatteringMatrix(estimate),
        row_reference_note=note,
        flagged_rows=tuple(int(i) for i in flagged),
    )


def _phase_factors(steps: int):
    """(cos theta_j, sin theta_j) per step; exact zeros and ones for K = 4."""
    if steps == 4:
        return ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))
    thetas = TWO_PI * np.arange(steps) / steps
    return tuple(zip(np.cos(thetas).tolist(), np.sin(thetas).tolist()))


def _measure_noisy(s_true: ScatteringMatrix, reference: np.ndarray, cfg: CalibrationConfig) -> np.ndarray:
    """Poisson-sampled phase stepping, one thread-pool task per block of ROW_BLOCK rows."""
    matrix = s_true.matrix
    # (max|r| + max|S|)^2 bounds every intensity sample, so an oversized budget fails before any draw
    max_s2 = max(medium.map_row_blocks(lambda block: float(np.max(_abs2(medium.row_block(matrix, block)))),
                                       s_true.m_out))
    bound = cfg.photons_per_measurement * (float(np.max(np.abs(reference))) + np.sqrt(max_s2)) ** 2
    if bound > _POISSON_LAM_MAX:
        raise ConfigError(f"photons_per_measurement={cfg.photons_per_measurement!r} allows up to {bound:.3g} "
                          f"photons in one sample, above the Poisson sampler's limit {_POISSON_LAM_MAX:.3g}")
    factors = _phase_factors(cfg.phase_steps)
    estimate = np.empty_like(matrix)
    medium.map_row_blocks(lambda block: _measure_block(matrix, reference, cfg, factors, block, estimate),
                          s_true.m_out)
    return estimate


def _measure_block(matrix: np.ndarray, reference: np.ndarray, cfg: CalibrationConfig, factors,
                   block: int, estimate: np.ndarray) -> None:
    """Write one block's Fourier estimate into its rows of ``estimate``."""
    rows = medium.row_block(matrix, block)
    r = medium.row_block(reference, block)[:, None]
    s_re, s_im, r_re, r_im = rows.real, rows.imag, r.real, r.imag
    # mean photon numbers: ppm * (|r|^2 + |S|^2) and ppm * 2 conj(r) S
    ppm = cfg.photons_per_measurement
    dc = ppm * (_abs2(r) + _abs2(rows))
    cross_re = (2.0 * ppm) * (r_re * s_re + r_im * s_im)
    cross_im = (2.0 * ppm) * (r_re * s_im - r_im * s_re)
    gen = rng.generator(cfg.noise_seed, rng.CALIBRATION_NOISE, block)
    acc_re = np.zeros(rows.shape)
    acc_im = np.zeros(rows.shape)
    mean = np.empty(rows.shape)
    for cos, sin in factors:  # zero factors are skipped: exact K = 4 needs half the work
        np.copyto(mean, dc)
        if cos:
            mean += cos * cross_re
        if sin:
            mean -= sin * cross_im
        np.maximum(mean, 0.0, out=mean)  # rounding can dip just below 0
        counts = gen.poisson(mean)
        if cos:
            acc_re += cos * counts
        if sin:
            acc_im -= sin * counts
    out = medium.row_block(estimate, block)
    np.divide(acc_re, len(factors) * ppm, out=out.real)
    np.divide(acc_im, len(factors) * ppm, out=out.imag)


def _abs2(values: np.ndarray) -> np.ndarray:
    return values.real * values.real + values.imag * values.imag


def sm_fidelity(s_true: ScatteringMatrix, estimate: SmEstimate) -> np.ndarray:
    """Per-row |<est, true>| / (||est|| ||true||) in [0, 1]; zero-norm rows give 0.

    Invariant to the per-row reference factor, so 1.0 means the row was
    recovered perfectly for every purpose the estimate serves.
    """
    est = estimate.matrix.matrix
    if est.shape != s_true.matrix.shape:
        raise DimensionError(f"estimate shape {est.shape} does not match true shape {s_true.matrix.shape}")
    # row-wise dot products: no temporary the size of the matrix
    inner = np.abs(np.vecdot(s_true.matrix, est))
    norms = np.sqrt(np.vecdot(est, est).real) * np.sqrt(np.vecdot(s_true.matrix, s_true.matrix).real)
    fidelity = np.zeros(s_true.m_out)
    good = norms > 0.0
    fidelity[good] = inner[good] / norms[good]
    return np.clip(fidelity, 0.0, 1.0)
