"""Fringe-scan visibility, two-mode density matrix and concurrence bounds.

The coherence d between the |01> and |10> components is not directly
countable; it is bounded through the visibility V of single-photon
interference fringes, |d| ~= V * (P01 + P10) / 2. The reduced density
matrix in the basis (|00>, |01>, |10>, |11>) is diagonal except for d at
the (|01>, |10>) positions, and the entanglement lower bound is

    C = max(2 |d| - 2 sqrt(P00 * P11), 0),

positive iff the state is certified entangled. Confidence in C > 0 uses
exact Poisson tail statistics on the triple-coincidence count, the one
number whose fluctuation can erase positivity.

A fringe scan (``scan_fringes``) splits into a noise-free pattern, which
depends only on the two matrices, the target pair and the step count,
and a noise model (phase jitter, background, count budget, sampling,
seed) that reads it. The pattern is memoised: the memo is keyed on the
identity of the two ``ScatteringMatrix`` objects, held by weak reference
so that it keeps no matrix alive, and then on (target_a, target_b,
n_steps). Each matrix pair keeps at most ``_PATTERNS_PER_PAIR`` patterns,
the oldest dropped first. A stored pattern holds read-only arrays that
refer to no matrix, and it relies on the matrices being immutable
(``ScatteringMatrix``). A hit gives the same bytes as a miss, every
argument check runs on every call, and the memo is safe to use from
several threads.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (ConfigError, DegenerateFieldError, DimensionError, StatisticsError, require_choice, require_count,
                     require_finite, require_integer, require_nonnegative, require_probability)
from .medium import ScatteringMatrix, propagate_rows
from .slm import TWO_PI, conjugate_fields, dual_target_weights
from .quantum import TwoModeState
from . import rng

SAMPLINGS = ("poisson", "expected")

# noise-free patterns kept per (s_true, s_masks) pair; the oldest is dropped first
_PATTERNS_PER_PAIR = 64
# s_true -> s_masks -> {(target_a, target_b, n_steps): _Pattern}, with weak keys so that no matrix is kept alive
_PATTERNS = weakref.WeakKeyDictionary()
_PATTERNS_LOCK = threading.Lock()

@dataclass(frozen=True)
class FringeScan:
    """Counts at one splitter port versus the programmed relative phase; every step lasts unit time."""

    phi: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        phi = np.array(self.phi, dtype=np.float64)  # a copy: the read-only flag below must not reach the caller
        counts = np.asarray(self.counts)
        if phi.ndim != 1 or phi.size < 5:
            raise ConfigError(f"a fringe scan needs at least 5 points, got {phi.size}")
        if counts.shape != phi.shape:
            raise ConfigError("phi and counts must have identical shapes")
        if not np.all((phi >= 0.0) & (phi <= TWO_PI)):  # written so that NaN fails it
            raise ConfigError("phases must lie within [0, 2*pi]")
        if np.any(counts < 0) or not np.issubdtype(counts.dtype, np.integer):
            raise ConfigError("counts must have an integer dtype and no negative entry")
        phi.setflags(write=False)
        counts = counts.astype(np.int64)
        counts.setflags(write=False)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def _adopt(cls, phi: np.ndarray, counts: np.ndarray) -> "FringeScan":
        """Wrap a pattern's checked, read-only phases and a fresh int64 count array; no check, no copy.

        The scan gets a view of ``phi``: numpy refuses to make a view of a
        read-only array writable, which it would not refuse for ``phi``
        itself, the memo's own array.
        """
        scan = object.__new__(cls)
        counts.setflags(write=False)
        object.__setattr__(scan, "phi", phi.view())
        object.__setattr__(scan, "counts", counts)
        return scan


@dataclass(frozen=True)
class VisibilityFit:
    visibility: float
    visibility_err: float
    offset: float
    phase0: float
    residual_rms: float


def scan_fringes(s_true: ScatteringMatrix, s_masks: ScatteringMatrix, target_a: int, target_b: int,
                 *, n_steps: int = 21, counts_per_step: float = 4000.0, seed: int = 0,
                 sigma_phi: float = 0.0, background_fraction: float = 0.0,
                 sampling: str = "poisson") -> FringeScan:
    """Scan the dual-target relative phase over [0, 2*pi] and count one port.

    The scan has two parts. The noise-free pattern depends only on
    (s_true, s_masks, target_a, target_b, n_steps). For each of n_steps
    phases phi_j = 2*pi*j/(n_steps-1) it programs the field
    ``conjugate_fields(s_masks, (a, b), dual_target_weights(s_masks, a, b, [phi_j]))``
    of the dual-target mask that ``conjugate_phases`` would give for
    ``s_masks`` (normally the calibration estimate), and so computes no
    phase. The field is propagated through the two target rows of
    ``s_true`` (the only output amplitudes the scan reads). The pattern
    keeps each step's total target power |a_a|^2 + |a_b|^2 and cross
    term Re(conj(a_a) a_b). The fields and their target amplitudes are
    built for all steps at once, with the bits of each step built alone:
    one ``conjugate_fields`` row and ``propagate`` of that field.
    The pattern is memoised (module docstring), so repeated scans of one
    matrix pair pay only for the noise model.

    The noise model combines the two target amplitudes on a balanced
    splitter. Phase jitter of width sigma_phi (radians) is averaged
    within each step, multiplying the cross term by
    exp(-sigma_phi^2 / 2); an unmodulated background of
    ``background_fraction`` of the scan-mean rate is added to the port.
    Expected counts are scaled so a step at the scan-mean total rate
    yields counts_per_step / 2, then Poisson sampled
    (``sampling="expected"`` keeps the rounded means, the
    infinite-budget limit). Every step lasts unit time. sigma_phi and
    background_fraction must be finite and nonnegative.
    """
    require_integer(5, n_steps=n_steps)
    require_nonnegative(counts_per_step=counts_per_step, sigma_phi=sigma_phi, background_fraction=background_fraction)
    require_choice(SAMPLINGS, sampling=sampling)
    gen = rng.generator(seed, rng.FRINGES)  # made first, so that a bad seed fails before the scan in either sampling
    if s_true.matrix.shape != s_masks.matrix.shape:
        raise DimensionError(f"mask matrix shape {s_masks.matrix.shape} does not match true shape {s_true.matrix.shape}")
    # the indices are checked before the lookup, as True and 1.0 equal a stored key 1; the checks that need
    # the rows run on a miss, and a pattern is stored only for arguments that pass them
    s_masks.check_output_index(target_a)
    s_masks.check_output_index(target_b)

    pattern = _pattern(s_true, s_masks, target_a, target_b, n_steps)
    port = pattern.total / 2.0 + math.exp(-0.5 * sigma_phi ** 2) * pattern.cross
    offset = background_fraction * pattern.mean_total / 2.0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow gives inf or NaN means, which the check rejects
        means = counts_per_step * (port + offset) / (pattern.mean_total * (1.0 + background_fraction))
        np.maximum(means, 0.0, out=means)
    rng.check_poisson_mean(means.max(), f"counts_per_step={counts_per_step!r}, background_fraction={background_fraction!r}")

    if sampling == "poisson":
        counts = gen.poisson(means)
    else:
        counts = np.rint(means).astype(np.int64)
    return FringeScan._adopt(pattern.phi, counts)


class _Pattern(NamedTuple):
    """A fringe scan's noise-free part: its phases, and each step's total target power and cross term."""

    phi: np.ndarray
    total: np.ndarray
    cross: np.ndarray
    mean_total: float


def _pattern(s_true: ScatteringMatrix, s_masks: ScatteringMatrix, target_a: int, target_b: int,
             n_steps: int) -> _Pattern:
    """The memoised noise-free pattern of a scan whose arguments ``scan_fringes`` has checked."""
    key = (target_a, target_b, n_steps)
    with _PATTERNS_LOCK:
        pattern = _PATTERNS.get(s_true, {}).get(s_masks, {}).get(key)
    if pattern is not None:
        return pattern
    pattern = _build_pattern(s_true, s_masks, target_a, target_b, n_steps)
    with _PATTERNS_LOCK:
        patterns = _PATTERNS.setdefault(s_true, weakref.WeakKeyDictionary()).setdefault(s_masks, {})
        if key not in patterns and len(patterns) >= _PATTERNS_PER_PAIR:
            del patterns[next(iter(patterns))]  # the oldest
        patterns[key] = pattern
    return pattern


def _build_pattern(s_true: ScatteringMatrix, s_masks: ScatteringMatrix, target_a: int, target_b: int,
                   n_steps: int) -> _Pattern:
    """Compute the noise-free pattern of a scan; the checks on the targets' rows and the scan's power run here."""
    phis = np.minimum(TWO_PI * np.arange(n_steps) / (n_steps - 1), TWO_PI)  # the last step can round an ulp above
    weights = dual_target_weights(s_masks, target_a, target_b, phis)
    fields = conjugate_fields(s_masks, (target_a, target_b), weights)
    amplitudes = propagate_rows(s_true.matrix[[target_a, target_b]], fields[:, None, :])
    total = np.empty(n_steps)
    cross = np.empty(n_steps)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing power is refused below, not warned about
        for j, (a_a, a_b) in enumerate(amplitudes):
            cross[j] = float(np.real(np.conj(a_a) * a_b))
            total[j] = abs(a_a) ** 2 + abs(a_b) ** 2
        mean_total = float(total.mean())
    if not math.isfinite(mean_total):
        raise ConfigError(f"the scan's power at true target rows {[target_a, target_b]} is beyond float64 range")
    if mean_total <= 0.0:
        raise DegenerateFieldError("no power reaches either target across the scan")
    for array in (phis, total, cross):
        array.setflags(write=False)
    return _Pattern(phis, total, cross, mean_total)


def fit_visibility(scan: FringeScan) -> VisibilityFit:
    """Poisson-weighted least-squares fit of counts = offset*(1 + V cos(phi - phase0)).

    The model is linear in c = (c0, c1, c2) = (offset, offset*V*cos(phase0),
    offset*V*sin(phase0)). With the basis u_j = (1, cos phi_j, sin phi_j),
    counts y_j and weights w_j = 1/max(y_j, 1), the weighted optimum solves
    the 3x3 normal equations (sum_j w_j u_j u_j^T) c = sum_j w_j y_j u_j
    (``_solve_fringe``, by the adjugate of that symmetric matrix). No BLAS
    or LAPACK routine runs, so the fit's bits do not depend on the host's
    kernels. visibility_err comes from the parameter covariance, the
    inverse of the same matrix, by the delta method. Visibility is clamped
    to [0, 1] after the error is computed; phase0 lies in [0, 2*pi).

    StatisticsError is raised for all-zero counts, for phases that do not
    span (1, cos phi, sin phi) (for example phases that all fall on 0 and
    2*pi, or on 0 and pi), and for a fitted mean rate that is not positive.
    """
    counts = scan.counts.astype(np.float64)
    (c0, c1, c2), residuals, adjugate, det = _solve_fringe(scan.phi, counts, 1.0 / np.maximum(counts, 1.0))
    if c0 <= 0.0:
        raise StatisticsError("fitted mean rate is not positive")

    amplitude = math.hypot(c1, c2)
    visibility = amplitude / c0
    if amplitude > 0.0:
        g0, g1, g2 = -amplitude / c0 ** 2, c1 / (amplitude * c0), c2 / (amplitude * c0)
    else:
        # direction-free bound at the cusp of the amplitude surface
        g0, g1, g2 = 0.0, 1.0 / c0, 1.0 / c0
    h0, h1, h2 = _adjugate_solve(adjugate, det, (g0, g1, g2))  # the covariance times the gradient
    variance = g0 * h0 + g1 * h1 + g2 * h2

    phase0 = math.atan2(c2, c1) % TWO_PI if amplitude > 0.0 else 0.0
    return VisibilityFit(
        visibility=min(max(visibility, 0.0), 1.0),
        visibility_err=math.sqrt(max(variance, 0.0)),
        offset=c0,
        phase0=0.0 if phase0 == TWO_PI else phase0,  # a tiny negative angle rounds up to exactly 2*pi
        residual_rms=math.sqrt(float(np.add.reduce(residuals * residuals)) / residuals.size),
    )


def _solve_fringe(phases: np.ndarray, counts: np.ndarray, weights: np.ndarray):
    """Weighted least squares of counts on (1, cos, sin) of the phases: ((c0, c1, c2), residuals, adjugate, det).

    A C-ordered (n, 15) table holds each step's row
    w * [1, c, s, c^2, cs, s^2, y, yc, ys] followed by the unweighted
    [1, c, s, c^2, cs, s^2]. One ``np.add.reduce(..., axis=0)`` sums it,
    adding the rows in order, so the sums do not depend on SIMD width:
    they are the upper triangle of the normal matrix A, the right-hand
    side b, and the upper triangle of the phases' own unweighted matrix.
    The symmetric 3x3 system is solved by its adjugate in Python floats,
    c = adj(A) b / det(A). It is refined once, by the same solve for
    sum_j w_j r_j u_j, whose per-step terms take the residuals
    r_j = y_j - u_j . c before any sum (summed the same way): alone, the
    rounding of A costs up to cond(A) * eps; refined, the fit agrees with
    a QR least-squares solve to a few ulps. The covariance of c is
    adj(A) / det(A).

    Raises StatisticsError for all-zero counts (sum_j w_j y_j is 0); when
    the phases alone do not span the basis, by their unweighted
    determinant over n^3 being at most 1e-12 (uniform scans read
    0.22-0.25), so that no count pattern can cause that refusal; and when
    det(A) is not positive.
    """
    n = phases.size
    rows = np.empty((9, n))  # the table's first nine columns, unweighted, one per row
    rows[0] = 1.0
    cos_phi, sin_phi = np.cos(phases, out=rows[1]), np.sin(phases, out=rows[2])
    np.multiply(rows[1:3], cos_phi, out=rows[3:5])
    np.multiply(sin_phi, sin_phi, out=rows[5])
    np.multiply(rows[:3], counts, out=rows[6:])
    table = np.empty((n, 15))
    np.multiply(rows, weights, out=table[:, :9].T)
    np.copyto(table[:, 9:].T, rows[:6])
    sums = np.add.reduce(table, axis=0).tolist()
    if sums[6] <= 0.0:
        raise StatisticsError("cannot fit a fringe through all-zero counts")
    if _adjugate(*sums[9:])[1] <= 1e-12 * n ** 3:
        raise StatisticsError("fringe scan phases do not span the fit basis")
    adjugate, det = _adjugate(*sums[:6])
    if not det > 0.0:
        raise StatisticsError("the weighted normal equations of the fringe fit are singular")
    c0, c1, c2 = _adjugate_solve(adjugate, det, sums[6:9])
    residuals = counts - (c0 + c1 * cos_phi + c2 * sin_phi)
    d0, d1, d2 = _adjugate_solve(adjugate, det, np.add.reduce(table[:, :3] * residuals[:, None], axis=0).tolist())
    c0, c1, c2 = c0 + d0, c1 + d1, c2 + d2
    return (c0, c1, c2), counts - (c0 + c1 * cos_phi + c2 * sin_phi), adjugate, det


def _adjugate(a00, a01, a02, a11, a12, a22):
    """The adjugate rows and the determinant of the symmetric 3x3 matrix with this upper triangle."""
    c00 = a11 * a22 - a12 * a12
    c01 = a02 * a12 - a01 * a22
    c02 = a01 * a12 - a02 * a11
    c11 = a00 * a22 - a02 * a02
    c12 = a01 * a02 - a00 * a12
    c22 = a00 * a11 - a01 * a01
    return ((c00, c01, c02), (c01, c11, c12), (c02, c12, c22)), a00 * c00 + a01 * c01 + a02 * c02


def _adjugate_solve(adjugate, det, rhs):
    """adj @ rhs / det in Python floats."""
    (a00, a01, a02), (_, a11, a12), (_, _, a22) = adjugate
    b0, b1, b2 = rhs
    return ((a00 * b0 + a01 * b1 + a02 * b2) / det, (a01 * b0 + a11 * b1 + a12 * b2) / det,
            (a02 * b0 + a12 * b1 + a22 * b2) / det)


def coherence_from_visibility(visibility: float, p01: float, p10: float) -> float:
    """|d| ~= V * (p01 + p10) / 2."""
    require_probability(visibility=visibility, p01=p01, p10=p10)
    return visibility * (p01 + p10) / 2.0


def build_density_matrix(state: TwoModeState) -> np.ndarray:
    """4x4 density matrix in the (|00>, |01>, |10>, |11>) basis.

    Diagonal carries the occupation probabilities; the only off-diagonal
    entries are the coherence d_mag between |01> and |10>, taken real
    (its phase changes neither the eigenvalues nor the concurrence). The
    result is Hermitian with unit trace, and positive semidefinite
    whenever d_mag <= sqrt(p01 * p10) (guaranteed by TwoModeState).
    """
    rho = np.zeros((4, 4), dtype=np.complex128)
    rho[0, 0] = state.p00
    rho[1, 1] = state.p01
    rho[2, 2] = state.p10
    rho[3, 3] = state.p11
    rho[1, 2] = rho[2, 1] = state.d_mag
    eigenvalues = np.linalg.eigvalsh(rho)
    if eigenvalues.min() < -1e-9:
        raise StatisticsError(f"density matrix not positive semidefinite: min eigenvalue {eigenvalues.min()}")
    return rho


def concurrence(p00: float, p11: float, d_mag: float) -> float:
    """Entanglement lower bound max(2|d| - 2 sqrt(p00 * p11), 0)."""
    require_probability(p00=p00, p11=p11)
    require_nonnegative(d_mag=d_mag)
    return max(2.0 * d_mag - 2.0 * math.sqrt(p00 * p11), 0.0)


def concurrence_error(state, visibility: float, visibility_err: float, n_t: int) -> float:
    """Quadrature propagation of the visibility and probability errors into C."""
    require_probability(visibility=visibility)
    require_nonnegative(visibility_err=visibility_err)
    require_count(1, n_t=n_t)
    sigma_d_sq = ((state.p01 + state.p10) / 2.0 * visibility_err) ** 2 \
        + (visibility / 2.0) ** 2 * (state.p01_err ** 2 + state.p10_err ** 2)
    terms = [4.0 * sigma_d_sq]
    if state.p00 > 0.0:
        terms.append((np.sqrt(state.p11 / state.p00) * state.p00_err) ** 2)
    if state.p11 > 0.0:
        terms.append((np.sqrt(state.p00 / state.p11) * state.p11_err) ** 2)
    else:
        # sensitivity of the subtracted term to a first triple count
        terms.append(state.p00 / n_t)
    return float(np.sqrt(sum(terms)))


def _poisson_cdf(n: int, lam: float) -> float:
    """P(Poisson(lam) <= n) for an integer n >= 0 and a finite lam >= 0.

    Up to lam = 700, where exp(-lam) is still a normal float, the terms
    t_k = t_{k-1} * lam / k from t_0 = exp(-lam) are summed, correctly
    rounded, by ``math.fsum``, stopping once k > lam and a term no longer
    moves the running sum. Above, the terms are recurred outward from the
    largest one in [0, n], relative to it, until they fall below 2^-60 of
    it; the cost grows with sqrt(lam), not with n. The largest term itself
    comes from ``math.lgamma`` up to n = 100 and from Stirling's series
    beyond, whose error does not grow with lam as that of
    lgamma(n + 1) - n log(lam) does (1e-4 relative at lam = 1e11).
    """
    if lam <= 700.0:
        term = math.exp(-lam)
        terms = [term]
        running = term
        for k in range(1, n + 1):
            term *= lam / k
            if k > lam and running + term == running:
                break
            terms.append(term)
            running += term
        return min(math.fsum(terms), 1.0)
    peak = min(n, math.floor(lam))
    terms = [1.0]
    term = 1.0
    for k in range(peak, 0, -1):
        term *= k / lam
        if term < 2.0 ** -60:
            break
        terms.append(term)
    term = 1.0
    for k in range(peak + 1, n + 1):
        term *= lam / k
        if term < 2.0 ** -60:
            break
        terms.append(term)
    if peak < 100:
        log_peak = peak * math.log(lam) - lam - math.lgamma(peak + 1)
    else:
        # Stirling's series for lgamma(peak + 1), to 1/peak^5; log1p forms
        # peak * log(peak / lam) - (peak - lam) without cancelling two terms of size lam
        inv_sq = 1.0 / (peak * peak)
        series = (1.0 - inv_sq / 30.0 * (1.0 - inv_sq * 2.0 / 7.0)) / (12.0 * peak)
        log_peak = (peak - lam) - peak * math.log1p((peak - lam) / lam) \
            - 0.5 * math.log(2.0 * math.pi * peak) - series
    return min(math.fsum(terms) * math.exp(log_peak), 1.0)


def poisson_upper_limit(n_obs: int, confidence: float) -> float:
    """One-sided upper limit on a Poisson mean after observing n_obs events.

    Returns the mean lam with P(Poisson(lam) <= n_obs) = 1 - confidence
    (Garwood 1936): the Poisson CDF falls with lam, so lam is bracketed by
    doubling and then bisected down to adjacent floats. The limit grows
    with both n_obs and confidence. For n_obs = 0 it is
    -ln(1 - confidence).
    """
    require_count(n_obs=n_obs)
    if not (0.0 < confidence < 1.0):
        raise ConfigError(f"confidence must lie strictly inside (0, 1), got {confidence}")
    n, tail = int(n_obs), 1.0 - confidence
    lo, hi = 0.0, 1.0
    while _poisson_cdf(n, hi) > tail:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if _poisson_cdf(n, mid) > tail:
            lo = mid
        else:
            hi = mid


def concurrence_threshold(n_t: int, d_mag: float, p00: float) -> int:
    """Largest triple count keeping the concurrence strictly positive.

    C > 0 at p11 = N / n_T requires N < n_T * d_mag^2 / p00; the largest
    such integer is ceil(x) - 1 (exact integer boundaries excluded by
    the strict inequality). Returns -1 when no count can do it
    (d_mag = 0: concurrence never positive).
    """
    require_count(1, n_t=n_t)
    require_nonnegative(d_mag=d_mag)
    if not (0.0 < p00 <= 1.0):
        raise ConfigError(f"p00 must lie in (0, 1], got {p00}")
    bound = n_t * d_mag * d_mag / p00
    require_finite(**{"n_t * d_mag^2 / p00": bound})
    return math.ceil(bound) - 1


def positivity_confidence(n_obs_triples: int, threshold: int) -> float:
    """Confidence that the true triple mean keeps the concurrence positive.

    Exact Poisson tail: the largest confidence c whose upper limit on
    the triple mean stays at or below ``threshold`` is
    P(Poisson(threshold) > n_obs_triples), computed as one minus the
    summed CDF of ``_poisson_cdf``.
    """
    require_count(threshold=threshold, n_obs_triples=n_obs_triples)
    return 1.0 - _poisson_cdf(int(n_obs_triples), float(threshold))
