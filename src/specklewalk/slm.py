"""Phase-only input masks: random baselines and conjugate focusing masks.

The modulator controls only the phase of each input mode, never its
amplitude. Focusing masks are the phase of the conjugate-transposed
matrix applied to the target weights, arg(S^H w): for a single target t
this is -arg(S[t, n]) per mode, which rotates every contribution
S[t, n] * exp(i phase[n]) onto the positive real axis so the target
amplitudes add coherently. Discarding the amplitude of S^H w costs the
usual pi/4 factor in enhancement; that penalty is part of the modeled
device, not something to correct. ``conjugate_fields`` gives the fields of
those masks, the unit phasors of S^H w, without computing the phases.
"""

from __future__ import annotations

import numpy as np

from .errors import (ConfigError, DegenerateTargetError, DimensionError, FormatError, as_array, require_all_finite,
                     require_integer)
from .medium import ScatteringMatrix, as_output_field
from . import rng

TWO_PI = 2.0 * np.pi


def canonicalize_phases(phases: np.ndarray) -> np.ndarray:
    """Fold phases, an array of any shape (0-d too), into [0, 2*pi); idempotent."""
    arr = as_array(phases, np.float64, "phases")
    require_all_finite(arr, "phases")
    folded = np.mod(arr, TWO_PI)
    return np.where(folded >= TWO_PI, 0.0, folded)  # np.mod can round tiny negatives up to exactly 2*pi


def dual_target_weights(sm: ScatteringMatrix, target_a: int, target_b: int, relative_phases) -> np.ndarray:
    """Equal-amplitude two-target weights, one (w_a, w_b) row per relative phase.

    Weights are inverse row norms of the matrix the masks will be computed
    from, so the two focused outputs come out with (statistically) equal
    amplitude even when the rows carry different norms or unknown
    calibration factors; target A leads target B in phase by the row's
    relative phase. A target row whose squared norm overflows float64
    raises ConfigError.
    """
    sm.check_output_index(target_a)
    sm.check_output_index(target_b)
    with np.errstate(over="ignore"):  # an overflowing square is refused below, not warned about
        norm_a = float(np.linalg.norm(sm.matrix[target_a]))
        norm_b = float(np.linalg.norm(sm.matrix[target_b]))
    _check_row_power([target_a, target_b], [norm_a, norm_b])
    if norm_a == 0.0 or norm_b == 0.0:
        raise DegenerateTargetError("dual target rows must both carry coupling")
    phis = as_array(relative_phases, np.float64, "relative phases")
    require_all_finite(phis, "relative phases")  # the norms are finite, so the weights are too
    weights = np.empty((phis.size, 2), dtype=np.complex128)
    weights[:, 0] = 1.0 / norm_a
    weights[:, 1] = np.exp(1j * phis) / norm_b
    return weights


def random_mask(n: int, seed: int) -> np.ndarray:
    """n phases i.i.d. uniform on [0, 2*pi), deterministic per seed."""
    require_integer(1, n=n)
    gen = rng.generator(seed, rng.RANDOM_MASK)
    return gen.uniform(0.0, TWO_PI, size=n)


def conjugate_phases(sm: ScatteringMatrix, targets, weights) -> np.ndarray:
    """Phase-only conjugation masks on the ``targets`` rows of ``sm``, one per row of the (masks, k) ``weights``.

    phases[j, n] = arg(sum_k conj(weights[j, k]) conj(S[targets[k], n])),
    folded into [0, 2*pi). For two targets, arg(weights[j, 1] /
    weights[j, 0]) sets the relative phase between the focused output
    fields. An index outside the output range raises DimensionError.
    Repeated or no targets, weights whose shape does not match the
    targets, a weight row that is zero or not finite, and a target row
    whose squared norm overflows float64 raise ConfigError. A target row
    without coupling or a superposition that cancels on every input mode
    raises DegenerateTargetError.
    """
    return canonicalize_phases(np.angle(_superposition(sm, targets, weights)))


def conjugate_fields(sm: ScatteringMatrix, targets, weights) -> np.ndarray:
    """The fields of the ``conjugate_phases`` masks, built without their phases; one (masks, n) row per weight row.

    Each entry is the unit phasor z/|z| (``_unit_phasors``) of the
    conjugate superposition z whose argument the mask holds. It lies
    within about 1e-15 of ``apply_mask`` of the mask, and an entry where
    z is exactly 0 gets field 1, the mask's phase 0. The arguments and
    errors are those of ``conjugate_phases``.
    """
    return _unit_phasors(_superposition(sm, targets, weights))


def _superposition(sm: ScatteringMatrix, targets, weights) -> np.ndarray:
    """The (masks, n) conjugate superpositions whose arguments ``conjugate_phases`` returns, with its checks."""
    targets = list(targets)
    if not targets:
        raise ConfigError("conjugation needs at least one target")
    for index in targets:
        sm.check_output_index(index)
    if len(set(targets)) != len(targets):
        raise ConfigError(f"target indices must be distinct, got {targets}")
    weights = as_array(weights, np.complex128, "target weights")
    if weights.ndim != 2 or weights.shape[1] != len(targets):
        raise ConfigError(f"weights of shape {weights.shape} do not match {len(targets)} targets")
    require_all_finite(weights, "target weights")
    if not np.all(np.any(weights != 0, axis=1)):
        raise ConfigError("at least one target weight must be nonzero")
    rows = sm.matrix[targets]
    with np.errstate(over="ignore"):  # an overflowing square is refused below, not warned about
        row_power = np.sum(np.abs(rows) ** 2, axis=1)
    _check_row_power(targets, row_power)
    if np.any(row_power == 0.0):
        dead = [targets[k] for k in np.nonzero(row_power == 0.0)[0]]
        raise DegenerateTargetError(f"target rows {dead} have no coupling to any input mode")
    # one (1, k) @ (k, n) product per mask, as for a single mask: one (masks, k) @ (k, n) product
    # rounds the last entries of a row differently when n is not a multiple of the BLAS kernel's width
    superposition = (np.conj(weights)[:, None, :] @ np.conj(rows))[:, 0]
    if not np.all(np.any(superposition != 0.0, axis=1)):
        raise DegenerateTargetError("target superposition cancels on every input mode")
    return superposition


def _unit_phasors(z: np.ndarray) -> np.ndarray:
    """Overwrite each entry of the complex array ``z`` with z/|z|, the field exp(i arg z), and return ``z``.

    Only + - * / and sqrt touch the entries, one entry at a time, so an
    entry's bits depend on nothing else in the array and on no host's
    math library. Both parts are first divided by max(|Re z|, |Im z|),
    so that neither a tiny nor a huge entry underflows or overflows in
    the squared norm. An entry that is exactly zero becomes 1, phase 0.
    """
    re, im = z.real, z.imag
    scale = np.abs(re)
    norm = np.abs(im)
    np.maximum(scale, norm, out=scale)
    zero = scale == 0.0
    if zero.any():
        re[zero], im[zero], scale[zero] = 1.0, 0.0, 1.0
    np.divide(re, scale, out=re)
    np.divide(im, scale, out=im)
    np.multiply(re, re, out=norm)
    np.multiply(im, im, out=scale)
    norm += scale
    np.sqrt(norm, out=norm)
    np.divide(re, norm, out=re)
    np.divide(im, norm, out=im)
    return z


def _check_row_power(targets: list, powers) -> None:
    """Raise ConfigError naming the target rows whose squared norm, or norm, in ``powers`` overflowed to inf."""
    overflowed = [index for index, power in zip(targets, powers) if power == np.inf]
    if overflowed:
        raise ConfigError(f"target rows {overflowed} have a squared norm beyond float64 range")


def _mask_phases(mask) -> np.ndarray:
    """``mask`` as float64 phases; ConfigError unless it is a nonempty 1-D sequence of finite phases."""
    phases = as_array(mask, np.float64, "mask phases")
    if phases.ndim != 1 or phases.size == 0:
        raise ConfigError("mask must be a nonempty 1-D phase sequence")
    require_all_finite(phases, "mask phases")
    return phases


def apply_mask(mask: np.ndarray) -> np.ndarray:
    """Unit-amplitude field exp(i * mask) of a phase-only modulator; power = n."""
    return np.exp(1j * _mask_phases(mask))


def enhancement(e_out: np.ndarray, target: int) -> float:
    """Target intensity over mean non-target intensity of the output field ``e_out``.

    ``e_out`` is the field at every output mode, ``propagate(sm, apply_mask(mask))``.
    Random masks give ~1; a conjugate mask on N controlled modes gives
    (pi/4)(N-1)+1 on average.
    """
    field = as_output_field(e_out, target)
    m_out = field.shape[0]
    if m_out < 2:
        raise DimensionError("enhancement needs at least two output modes for a background")
    intensities = np.abs(field) ** 2
    background = (float(intensities.sum()) - float(intensities[target])) / (m_out - 1)
    if background == 0.0:
        raise DegenerateTargetError("background intensity is exactly zero")
    return float(intensities[target]) / background


def save_mask_csv(path, mask: np.ndarray) -> None:
    """One phase per line, radians, 17 significant digits (lossless for float64); refuses what ``apply_mask`` does."""
    phases = canonicalize_phases(_mask_phases(mask))  # checked before the file is opened
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for value in phases:
            fh.write(f"{value:.17g}\n")


def load_mask_csv(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = list(fh)
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    values = []
    for line_no, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            values.append(float(text))
        except ValueError as exc:
            raise FormatError(f"{path}:{line_no}: not a phase value: {text!r}") from exc
    if not values:
        raise FormatError(f"{path}: empty mask file")
    arr = np.asarray(values, dtype=np.float64)
    if not np.all((arr >= 0.0) & (arr < TWO_PI)):  # written so that NaN fails it
        raise FormatError(f"{path}: phases must already be canonical in [0, 2*pi)")
    return arr
