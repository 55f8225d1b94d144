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

The measurement runs in blocks of ``medium.ROW_BLOCK`` output rows, one
``estimate_block`` call each, which reads only its own block's rows.
``measure_sm`` maps it over a whole matrix; a caller that draws the
medium block by block calls it on each block as it is drawn, and may
hand it one scratch array to reuse for every block.

Shot noise is modeled as Poisson photon counting on every intensity
sample, with photons_per_measurement photons per unit intensity.
Block b draws from its own stream, (CALIBRATION_NOISE, b) in ``rng``, so
the estimate's bytes do not depend on how many worker threads run the
blocks. The intensities use real arithmetic, and for the standard K = 4
sequence the phase factors exp(i theta_j) are the exact (1, i, -1, -i).

Shot-noise rule. For K = 4 the estimate reads only the differences
c0 - c2 and c3 - c1 of independent Poisson counts, whose means are
2 ppm Re(conj(r) S) and 2 ppm Im(conj(r) S) and whose variance is
2 ppm (|r|^2 + |S|^2), with ppm = photons_per_measurement. A row whose
smallest sample mean, ppm * min_n(|r|^2 + |S|^2 - 2 max(|Re conj(r) S|,
|Im conj(r) S|)), is at least _GAUSSIAN_FLOOR photons draws each
difference as one normal with exactly that mean and variance. Every
other row, and every row when K != 4, draws each of its K samples as an
exact Poisson count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DimensionError, require_finite, require_integer
from .medium import ScatteringMatrix
from .slm import TWO_PI, apply_mask, random_mask
# block helpers are called through their module: perfbench/tracing.py wraps the names
# imported here, and its span stack must not be touched from worker threads
from . import medium, rng

# photons: for K = 4, a row whose smallest sample mean reaches this draws moment-matched normals;
# each Poisson difference they replace then has skewness below 0.023 and excess kurtosis below 5e-4
_GAUSSIAN_FLOOR = 1000.0


@dataclass(frozen=True)
class CalibrationConfig:
    phase_steps: int = 4
    photons_per_measurement: Optional[float] = None  # None means noiseless
    reference_seed: int = 1
    noise_seed: int = 2

    def __post_init__(self):
        require_integer(phase_steps=self.phase_steps)
        require_integer(0, reference_seed=self.reference_seed, noise_seed=self.noise_seed)
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
    """Measured matrix, known only up to one complex factor per output row; rows with no reference are zero."""

    matrix: ScatteringMatrix


def reference_field(n_in: int, cfg: CalibrationConfig) -> np.ndarray:
    """The fixed unit-amplitude reference input held during probing; read-only, built once per (n_in, reference_seed)."""
    return _reference_field(n_in, cfg.reference_seed)


@functools.lru_cache(maxsize=16)  # a run's phase-1 calibrations and its row pass share one field
def _reference_field(n_in: int, reference_seed: int) -> np.ndarray:
    field = apply_mask(random_mask(n_in, reference_seed))
    field.setflags(write=False)
    return field


def measure_sm(s_true: ScatteringMatrix, cfg: CalibrationConfig, *, first_block: int = 0) -> SmEstimate:
    """Phase-step every input mode against the static reference speckle, one ``estimate_block`` per row block.

    Row block i of ``s_true`` is block ``first_block + i`` of its medium and
    draws that block's noise stream, so a caller that holds only some
    blocks of a medium calibrates them to the bytes of the whole.
    ConfigError when a block's reference speckle carries a power beyond
    float64 range (noiseless) or its Poisson means are beyond the sampler
    (noisy); see ``estimate_block``.
    """
    require_integer(0, first_block=first_block)
    field = reference_field(s_true.n_in, cfg)
    estimate = np.empty_like(s_true.matrix)
    medium.map_row_blocks(
        lambda block: estimate_block(medium.row_block(s_true.matrix, block), field, cfg, first_block + block,
                                     medium.row_block(estimate, block)),
        s_true.m_out)
    return SmEstimate(matrix=ScatteringMatrix._adopt(estimate))


def estimate_block(rows: np.ndarray, field: np.ndarray, cfg: CalibrationConfig, block: int,
                   out: np.ndarray, scratch: Optional[np.ndarray] = None) -> None:
    """Write the estimate of row block ``block``, true rows ``rows``, into ``out``.

    ``field`` is ``reference_field(n_in, cfg)``. The reference r_m of each
    row is its output under that field. Without noise the estimate is
    conj(r_m) S_mn, after ``medium.output_intensities`` has checked that
    the power of the reference speckle r is within float64 range; with
    noise the block draws from its own stream, after checking that the
    largest Poisson mean the block can ask for, ppm (max|r_m| +
    max|S_mn|)^2 over the block, is finite and within the sampler.
    Rows with r_m = 0 carry no information and come out zero.

    A noisy block works in ``scratch``, a float64 array of shape
    (3,) + rows.shape whose three parts are C-ordered; when it is None the
    block allocates one. Its contents going in do not matter.
    """
    reference = medium.propagate_rows(rows, field)
    if cfg.noiseless:
        medium.output_intensities(reference)  # the reference speckle's power must lie within float64 range
        np.multiply(np.conj(reference)[:, None], rows, out=out)
    else:
        _measure_noisy(rows, reference, cfg, block, out, np.empty((3,) + rows.shape) if scratch is None else scratch)
    out[np.abs(reference) == 0.0, :] = 0.0


def _phase_factors(steps: int):
    """(cos theta_j, sin theta_j) per step; exact zeros and ones for K = 4."""
    if steps == 4:
        return ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))
    thetas = TWO_PI * np.arange(steps) / steps
    return tuple(zip(np.cos(thetas).tolist(), np.sin(thetas).tolist()))


def _measure_noisy(rows: np.ndarray, reference: np.ndarray, cfg: CalibrationConfig, block: int,
                   out: np.ndarray, scratch: np.ndarray) -> None:
    """Write one block's shot-noise-limited Fourier estimate into ``out``, working in ``scratch``.

    Rows follow the module's shot-noise rule: for K = 4, a row whose smallest
    sample mean is at least _GAUSSIAN_FLOOR photons gets two moment-matched
    normal draws per entry; every other row, and every row when K != 4, gets
    K exact Poisson draws per entry. Draw order on the block's stream: the
    normals of the rows at or above the floor (every real part, row by row,
    then every imaginary part), then the Poisson counts of the other rows,
    one phase step at a time.

    ``scratch`` holds three (rows, n_in) arrays: |r|^2 + |S|^2, a work
    array and the normals. Every value is computed from the same operands
    in the same order as with new temporaries, so the bytes do not depend
    on where it works.
    """
    ppm = cfg.photons_per_measurement
    power, work, normals = scratch
    s_re, s_im = rows.real, rows.imag
    # (max|r| + max|S|)^2 bounds every intensity sample of the block, so an oversized budget fails before its draws
    with np.errstate(over="ignore"):  # a bound beyond float64 range is inf, which the check refuses
        s2 = np.multiply(s_re, s_re, out=power)
        s2 += np.multiply(s_im, s_im, out=work)
        bound = ppm * (float(np.max(np.abs(reference))) + np.sqrt(float(np.max(s2)))) ** 2
    rng.check_poisson_mean(bound, f"photons_per_measurement={ppm!r}")
    factors = _phase_factors(cfg.phase_steps)
    r = reference[:, None]
    r_re, r_im = r.real, r.imag
    # per unit intensity: |r|^2 + |S|^2 and conj(r) S, the latter in ``out`` until the draws replace it;
    # the mean photon numbers are ppm and 2 ppm times these
    power = np.add(s2, r_re * r_re + r_im * r_im, out=s2)
    x_re = np.multiply(r_re, s_re, out=out.real)
    x_re += np.multiply(r_im, s_im, out=work)
    x_im = np.multiply(r_re, s_im, out=out.imag)
    x_im -= np.multiply(r_im, s_re, out=work)
    gen = rng.generator(cfg.noise_seed, rng.CALIBRATION_NOISE, block)
    exact = slice(None)
    if len(factors) == 4:
        # the four sample means are ppm * (power + 2 x_re, power - 2 x_im, power - 2 x_re, power + 2 x_im)
        spread = np.maximum(np.abs(x_re, out=work), np.abs(x_im, out=normals), out=work)
        spread *= 2.0
        lowest = ppm * np.min(np.subtract(power, spread, out=spread), axis=1)
        gaussian = lowest >= _GAUSSIAN_FLOOR
        if gaussian.any():
            # c0 - c2 ~ N(2 ppm x_re, 2 ppm power) and c3 - c1 ~ N(2 ppm x_im, 2 ppm power); divided by 4 ppm,
            # each component is x + sqrt(power / (8 ppm)) * z, all real parts drawn before all imaginary parts
            g = np.flatnonzero(gaussian)
            z, gathered = normals[:g.size], work[:g.size]
            for x in (x_re, x_im):
                gen.standard_normal(out=z)
                z *= np.sqrt(np.divide(_take_rows(power, g, gathered), 8.0 * ppm, out=gathered), out=gathered)
                x[g] = np.add(_take_rows(x, g, gathered), z, out=z)
            exact = np.flatnonzero(~gaussian)
    acc_re, acc_im = _poisson_sums(gen, ppm * power[exact], (2.0 * ppm) * x_re[exact], (2.0 * ppm) * x_im[exact],
                                   factors)
    out.real[exact] = np.divide(acc_re, len(factors) * ppm, out=acc_re)
    out.imag[exact] = np.divide(acc_im, len(factors) * ppm, out=acc_im)


def _take_rows(values: np.ndarray, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """values[rows] into ``out``; mode "clip" writes ``out`` directly, where "raise" would buffer it."""
    return np.take(values, rows, axis=0, out=out, mode="clip")


def _poisson_sums(gen: np.random.Generator, dc: np.ndarray, cross_re: np.ndarray, cross_im: np.ndarray, factors):
    """Fourier sums of K exact Poisson samples per entry of means dc + cos * cross_re - sin * cross_im.

    Draws one phase step at a time, over every entry in row order.
    """
    acc_re = np.zeros(dc.shape)
    acc_im = np.zeros(dc.shape)
    mean = np.empty(dc.shape)
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
    return acc_re, acc_im


def sm_fidelity(s_true: ScatteringMatrix, estimate: SmEstimate) -> np.ndarray:
    """Per-row |<est, true>| / (||est|| ||true||) in [0, 1]; zero-norm rows give 0.

    Invariant to the per-row reference factor, so 1.0 means the row was
    recovered perfectly for every purpose the estimate serves. ConfigError
    when a row's squared norm is beyond float64 range.
    """
    est = estimate.matrix.matrix
    if est.shape != s_true.matrix.shape:
        raise DimensionError(f"estimate shape {est.shape} does not match true shape {s_true.matrix.shape}")
    return row_fidelity(s_true.matrix, est)


def row_fidelity(rows: np.ndarray, est: np.ndarray) -> np.ndarray:
    """``sm_fidelity`` of true ``rows`` and their estimate ``est``, one row-wise dot product each, no temporary matrix."""
    with np.errstate(over="ignore", invalid="ignore"):  # a squared norm beyond float64 range is refused below
        est_power, rows_power = np.vecdot(est, est).real, np.vecdot(rows, rows).real
    if not (np.all(np.isfinite(est_power)) and np.all(np.isfinite(rows_power))):
        raise ConfigError("a row's squared norm is beyond float64 range")
    inner = np.abs(np.vecdot(rows, est))  # at most the product of the norms, so finite
    norms = np.sqrt(est_power) * np.sqrt(rows_power)
    fidelity = np.zeros(len(rows))
    good = norms > 0.0
    fidelity[good] = inner[good] / norms[good]
    return np.clip(fidelity, 0.0, 1.0)
