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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateFieldError, DimensionError, StatisticsError, require_finite
from .medium import ScatteringMatrix, propagate_rows
from .slm import TWO_PI, conjugate_phases, dual_target_weights
from .quantum import TwoModeState
from . import rng


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
            raise ConfigError("counts must be nonnegative integers")
        phi.setflags(write=False)
        counts = counts.astype(np.int64)
        counts.setflags(write=False)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "counts", counts)


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

    For each of n_steps phases phi_j = 2*pi*j/(n_steps-1) a dual-target
    mask is computed from ``s_masks`` (normally the calibration
    estimate), propagated through the two target rows of ``s_true``
    (the only output amplitudes the scan reads), and the two target
    amplitudes are combined on a balanced splitter. The masks and their
    target amplitudes are built for all steps at once, with the bits of
    the one-mask ``conjugate_phases(s_masks, (a, b), dual_target_weights(s_masks, a, b, [phi_j]))``
    and of ``propagate`` of its field, step by step. Phase jitter of
    width sigma_phi (radians) is averaged within each step, multiplying
    the interference cross term by exp(-sigma_phi^2 / 2); an unmodulated
    background of ``background_fraction`` of the scan-mean rate is added
    to the port. Expected counts are scaled so a step at the scan-mean
    total rate yields counts_per_step / 2, then Poisson sampled
    (``sampling="expected"`` keeps the rounded means, the infinite-budget
    limit). Every step lasts unit time. sigma_phi and
    background_fraction must be finite and nonnegative.
    """
    if n_steps < 5:
        raise ConfigError(f"n_steps must be >= 5, got {n_steps}")
    if counts_per_step < 0 or not np.isfinite(counts_per_step):
        raise ConfigError("counts_per_step must be a finite nonnegative number")
    require_finite(sigma_phi=sigma_phi, background_fraction=background_fraction)
    if sigma_phi < 0:
        raise ConfigError("sigma_phi must be nonnegative")
    if background_fraction < 0:
        raise ConfigError("background_fraction must be nonnegative")
    if sampling not in ("poisson", "expected"):
        raise ConfigError(f"sampling must be 'poisson' or 'expected', got {sampling!r}")
    if s_true.matrix.shape != s_masks.matrix.shape:
        raise DimensionError(f"mask matrix shape {s_masks.matrix.shape} does not match true shape {s_true.matrix.shape}")

    phis = TWO_PI * np.arange(n_steps) / (n_steps - 1)
    weights = dual_target_weights(s_masks, target_a, target_b, phis)
    fields = 1j * conjugate_phases(s_masks, (target_a, target_b), weights)
    np.exp(fields, out=fields)  # the fold has checked that the phases are finite
    amplitudes = propagate_rows(s_true.matrix[[target_a, target_b]], fields[:, None, :])
    dephasing = math.exp(-0.5 * sigma_phi ** 2)
    port = np.empty(n_steps)
    total = np.empty(n_steps)
    for j, (a_a, a_b) in enumerate(amplitudes):
        cross = float(np.real(np.conj(a_a) * a_b))
        total[j] = abs(a_a) ** 2 + abs(a_b) ** 2
        port[j] = total[j] / 2.0 + dephasing * cross

    mean_total = float(total.mean())
    if mean_total <= 0.0:
        raise DegenerateFieldError("no power reaches either target across the scan")
    offset = background_fraction * mean_total / 2.0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow gives inf or NaN means, which the check rejects
        means = counts_per_step * (port + offset) / (mean_total * (1.0 + background_fraction))
        means = np.clip(means, 0.0, None)
    rng.check_poisson_mean(means.max(), f"counts_per_step={counts_per_step!r}, background_fraction={background_fraction!r}")

    if sampling == "poisson":
        counts = rng.generator(seed, rng.FRINGES).poisson(means)
    else:
        counts = np.rint(means).astype(np.int64)
    return FringeScan(phi=phis, counts=counts)


def fit_visibility(scan: FringeScan) -> VisibilityFit:
    """Poisson-weighted least-squares fit of counts = offset*(1 + V cos(phi - phase0)).

    The model is linear in (c0, c1, c2) = (offset, offset*V*cos(phase0),
    offset*V*sin(phase0)), so the weighted optimum is solved in closed
    form; visibility_err comes from the parameter covariance by the
    delta method. Visibility is clamped to [0, 1] after the error is
    computed.
    """
    counts = scan.counts.astype(np.float64)
    if counts.sum() <= 0:
        raise StatisticsError("cannot fit a fringe through all-zero counts")
    weights = 1.0 / np.maximum(counts, 1.0)

    design = np.column_stack([np.ones_like(scan.phi), np.cos(scan.phi), np.sin(scan.phi)])
    sqrt_w = np.sqrt(weights)
    coef, *_ = np.linalg.lstsq(design * sqrt_w[:, None], counts * sqrt_w, rcond=None)
    c0, c1, c2 = (float(c) for c in coef)
    if c0 <= 0.0:
        raise StatisticsError("fitted mean rate is not positive")

    try:
        covariance = np.linalg.inv(design.T @ (weights[:, None] * design))
    except np.linalg.LinAlgError as exc:
        raise StatisticsError("fringe scan phases do not span the fit basis") from exc
    amplitude = math.hypot(c1, c2)
    visibility = amplitude / c0
    if amplitude > 0.0:
        grad = np.array([-amplitude / c0 ** 2, c1 / (amplitude * c0), c2 / (amplitude * c0)])
    else:
        # direction-free bound at the cusp of the amplitude surface
        grad = np.array([0.0, 1.0 / c0, 1.0 / c0])
    visibility_err = float(np.sqrt(max(grad @ covariance @ grad, 0.0)))

    phase0 = math.atan2(c2, c1) % TWO_PI if amplitude > 0.0 else 0.0
    residuals = counts - design @ coef
    return VisibilityFit(
        visibility=float(min(max(visibility, 0.0), 1.0)),
        visibility_err=visibility_err,
        offset=c0,
        phase0=phase0,
        residual_rms=float(np.sqrt(np.mean(residuals ** 2))),
    )


def coherence_from_visibility(visibility: float, p01: float, p10: float) -> float:
    """|d| ~= V * (p01 + p10) / 2."""
    for name, value in (("visibility", visibility), ("p01", p01), ("p10", p10)):
        if not (0.0 <= value <= 1.0):
            raise ConfigError(f"{name} must lie in [0, 1], got {value}")
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
    for name, value in (("p00", p00), ("p11", p11)):
        if not (0.0 <= value <= 1.0):
            raise ConfigError(f"{name} must lie in [0, 1], got {value}")
    require_finite(d_mag=d_mag)
    if d_mag < 0.0:
        raise ConfigError("coherence magnitude must be nonnegative")
    return max(2.0 * d_mag - 2.0 * math.sqrt(p00 * p11), 0.0)


def concurrence_error(state, visibility: float, visibility_err: float, n_t: int) -> float:
    """Quadrature propagation of the visibility and probability errors into C."""
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
    require_finite(n_obs=n_obs)
    if n_obs < 0 or int(n_obs) != n_obs:
        raise ConfigError(f"n_obs must be a nonnegative integer, got {n_obs}")
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
    require_finite(n_t=n_t, d_mag=d_mag)
    if n_t <= 0 or int(n_t) != n_t:
        raise ConfigError(f"n_t must be a positive integer, got {n_t}")
    if not (0.0 < p00 <= 1.0):
        raise ConfigError(f"p00 must lie in (0, 1], got {p00}")
    if d_mag < 0.0:
        raise ConfigError("coherence magnitude must be nonnegative")
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
    require_finite(n_obs_triples=n_obs_triples, threshold=threshold)
    if threshold < 0 or int(threshold) != threshold:
        raise ConfigError(f"threshold must be a nonnegative integer, got {threshold}")
    if n_obs_triples < 0 or int(n_obs_triples) != n_obs_triples:
        raise ConfigError(f"n_obs_triples must be a nonnegative integer, got {n_obs_triples}")
    return 1.0 - _poisson_cdf(int(n_obs_triples), float(threshold))
