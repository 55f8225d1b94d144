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
hand it one scratch array to reuse for every block. ``estimate_block``
alone reads the reference input, fixed by (n_in, reference_seed).

Shot noise is modeled as Poisson photon counting on every intensity
sample, with photons_per_measurement photons per unit intensity.
Block b draws from its own stream, (CALIBRATION_NOISE, b) in ``rng``, so
the estimate's bytes do not depend on how many worker threads run the
blocks. The intensities use real arithmetic, and for the standard K = 4
sequence the phase factors exp(i theta_j) are the exact (1, i, -1, -i).

Shot-noise rule. For K = 4 the estimate reads only the differences
c0 - c2 and c3 - c1 of independent Poisson counts, whose means are
2 ppm Re(conj(r) S) and 2 ppm Im(conj(r) S) and whose variance is
2 ppm (|r|^2 + |S|^2), with ppm = photons_per_measurement. Such a Skellam
difference of total mean mu has skewness <= mu^(-1/2) and excess kurtosis
1 / mu, whatever its fringe. A row with ppm * min_n(|r|^2 + |S|^2) at least
_GAUSSIAN_FLOOR = 100 photons (mu >= 200: skewness <= 0.071, excess
kurtosis <= 0.005) draws each difference as one normal with exactly that
mean and variance. Every other row, and every row when K != 4, draws each
of its K samples as an exact Poisson count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DimensionError, require_finite, require_integer
from .medium import ScatteringMatrix
from .slm import TWO_PI
# block helpers, the reference field's builders among them, are called through their module: perfbench/tracing.py
# wraps the names imported here, and its span stack must not be touched from worker threads
from . import medium, rng, slm

# photons: for K = 4, a row with ppm * min_n(|r|^2 + |S|^2) at or above this draws moment-matched normals; each Poisson
# difference they replace has total mean >= 200, so skewness <= 1/sqrt(200) ~ 0.071 and excess kurtosis <= 0.005
_GAUSSIAN_FLOOR = 100.0


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


@functools.lru_cache(maxsize=16)  # every block of a run, on any thread, reads one field
def _reference_field(n_in: int, reference_seed: int) -> np.ndarray:
    field = slm.apply_mask(slm.random_mask(n_in, reference_seed))
    field.setflags(write=False)
    return field


def measure_sm(s_true: ScatteringMatrix, cfg: CalibrationConfig, *, first_block: int = 0) -> SmEstimate:
    """Phase-step every input mode against the static reference speckle, one ``estimate_block`` per row block.

    Row block i of ``s_true`` is block ``first_block + i`` of its medium and
    draws that block's noise stream, so a caller that holds only some
    blocks of a medium calibrates them to the bytes of the whole.
    ConfigError when a block's reference speckle carries a power beyond
    float64 range (noiseless) or its Poisson means are beyond the sampler
    or its shot-noise variance beyond float64 range (noisy); see ``estimate_block``.
    """
    require_integer(0, first_block=first_block)
    estimate = np.empty_like(s_true.matrix)
    medium.map_row_blocks(lambda block: estimate_block(medium.row_block(s_true.matrix, block), cfg, first_block + block,
                                                       medium.row_block(estimate, block)), s_true.m_out)
    return SmEstimate(matrix=ScatteringMatrix._adopt(estimate))


def estimate_block(rows: np.ndarray, cfg: CalibrationConfig, block: int, out: np.ndarray,
                   scratch: Optional[np.ndarray] = None) -> None:
    """Write the estimate of row block ``block``, true rows ``rows``, into ``out``.

    The reference r_m of each row is its output under the input that
    (n_in, reference_seed) fixes, ``reference_field``, read here alone.
    Without noise the estimate is conj(r_m) S_mn, after
    ``medium.output_intensities`` has checked that the power of the
    reference speckle r is within float64 range; with noise the block
    draws from its own stream, after checking that the largest Poisson
    mean the block can ask for, ppm (max|r_m| + max|S_mn|)^2 over the
    block, is finite and within the sampler, and that this mean over
    ppm^2, which bounds the estimate's shot-noise variance, is finite
    (ConfigError otherwise). Rows with r_m = 0 carry no information and
    come out zero.

    A noisy block works in ``scratch``, a float64 array of shape
    (3,) + rows.shape whose three parts are C-ordered; when it is None the
    block allocates one. Its contents going in do not matter. The parts
    hold |r|^2 + |S|^2 and then the noise scale, products and then the
    placed noise, and the normals (see ``_measure_noisy``).
    """
    reference = medium.propagate_rows(rows, reference_field(rows.shape[1], cfg))
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

    Rows follow the module's shot-noise rule: for K = 4, a row with ppm *
    min_n(|r|^2 + |S|^2) >= _GAUSSIAN_FLOOR gets two moment-matched normal
    draws per entry (skewness <= 0.071, excess kurtosis <= 0.005 for each
    Poisson difference replaced); every other row, and every row when K != 4,
    gets K exact Poisson draws per entry. Draw order on the block's stream:
    the normals of the rows at or above the floor (every real part, row by
    row, then every imaginary part), then the Poisson counts of the other
    rows, one phase step at a time.

    ``scratch`` holds three (rows, n_in) planes: |r|^2 + |S|^2, which
    becomes the noise scale sqrt(power / (8 ppm)) once the Poisson means
    are read from it; a work plane, which holds products of r and S and then
    the noise, the normals placed in their rows and scaled; and the normals.
    The noise is added to the whole block: rows below the floor take +0
    before their Poisson sums replace them. Every value is computed from
    the same operands in the same order as with new temporaries, so the
    bytes do not depend on where it works.
    """
    ppm = cfg.photons_per_measurement
    power, work, normals = scratch
    s_re, s_im = rows.real, rows.imag
    # (max|r| + max|S|)^2 bounds every intensity sample of the block, so an oversized budget fails before its draws;
    # over ppm^2 it bounds the estimate's shot-noise variance (power / (8 ppm) for the normals), refused if infinite
    with np.errstate(over="ignore"):  # a bound beyond float64 range is inf, which the checks refuse
        s2 = np.multiply(s_re, s_re, out=power)
        s2 += np.multiply(s_im, s_im, out=work)
        bound = ppm * (float(np.max(np.abs(reference))) + np.sqrt(float(np.max(s2)))) ** 2
    rng.check_poisson_mean(bound, f"photons_per_measurement={ppm!r}")
    if float(bound) / ppm / ppm == np.inf:
        raise ConfigError(f"photons_per_measurement={ppm!r} puts the estimate's noise variance beyond float64 range")
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
    gaussian = np.zeros(len(rows), dtype=bool)  # only K = 4 draws normals
    if len(factors) == 4:
        # each difference c0 - c2, c3 - c1 has total mean 2 ppm power, which alone bounds its skewness and kurtosis
        gaussian = ppm * np.min(power, axis=1) >= _GAUSSIAN_FLOOR
    exact = np.flatnonzero(~gaussian)
    means = ppm * power[exact], (2.0 * ppm) * x_re[exact], (2.0 * ppm) * x_im[exact]
    if gaussian.any():
        # c0 - c2 ~ N(2 ppm x_re, 2 ppm power) and c3 - c1 ~ N(2 ppm x_im, 2 ppm power); divided by 4 ppm,
        # each component is x + sqrt(power / (8 ppm)) * z, all real parts drawn before all imaginary parts;
        # the other rows add 0 * scale = +0 (the bound keeps the scale finite) before their Poisson sums replace them
        scale = np.sqrt(np.divide(power, 8.0 * ppm, out=power), out=power)
        work.fill(0.0)
        for x in (x_re, x_im):
            work[gaussian] = gen.standard_normal(out=normals[:np.count_nonzero(gaussian)])
            work *= scale
            x += work
    acc_re, acc_im = _poisson_sums(gen, *means, factors)
    out.real[exact] = np.divide(acc_re, len(factors) * ppm, out=acc_re)
    out.imag[exact] = np.divide(acc_im, len(factors) * ppm, out=acc_im)


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
