import dataclasses
import gc
import math
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammainccinv, pdtr

from specklewalk import (
    CalibrationConfig,
    ConfigError,
    DegenerateFieldError,
    DegenerateTargetError,
    DimensionError,
    FringeScan,
    MediumConfig,
    ScatteringMatrix,
    StatisticsError,
    TwoModeState,
    coherence_from_visibility,
    concurrence,
    concurrence_error,
    concurrence_threshold,
    fit_visibility,
    generate_medium,
    measure_sm,
    poisson_upper_limit,
    positivity_confidence,
    propagate,
    scan_fringes,
)
from specklewalk.harness import _write_csv
from specklewalk.slm import _unit_phasors, apply_mask, conjugate_fields, conjugate_phases, dual_target_weights
from specklewalk import tomography
from specklewalk.tomography import SAMPLINGS, _poisson_cdf


# --- independent oracle for Poisson upper limits (math module only) ---

def poisson_cdf_by_sum(n, lam):
    term = math.exp(-lam)
    total = term
    for k in range(1, n + 1):
        term *= lam / k
        total += term
    return total


def upper_limit_oracle(n, confidence):
    lo, hi = 0.0, 1.0
    while poisson_cdf_by_sum(n, hi) > 1 - confidence:
        hi *= 2
    for _ in range(200):
        mid = (lo + hi) / 2
        if poisson_cdf_by_sum(n, mid) > 1 - confidence:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def synthetic_scan(offset, visibility, phase0, n_steps=21, rng=None):
    phi = 2 * np.pi * np.arange(n_steps) / (n_steps - 1)
    rates = offset * (1 + visibility * np.cos(phi - phase0))
    counts = np.rint(rates).astype(np.int64) if rng is None else rng.poisson(rates)
    return FringeScan(phi=phi, counts=counts)


def test_fringe_scan_validation():
    phi = np.linspace(0, 2 * np.pi, 21)
    with pytest.raises(ConfigError):
        FringeScan(phi=phi[:4], counts=np.ones(4, dtype=np.int64))
    with pytest.raises(ConfigError):
        FringeScan(phi=phi + 1.0, counts=np.ones(21, dtype=np.int64))
    with pytest.raises(ConfigError):
        FringeScan(phi=phi, counts=np.ones(21) * 0.5)


def test_fringe_scan_leaves_the_callers_arrays_writable():
    phi = np.linspace(0, 2 * np.pi, 21)
    counts = np.ones(21, dtype=np.int64)
    scan = FringeScan(phi=phi, counts=counts)
    assert phi.flags.writeable and counts.flags.writeable
    assert not scan.phi.flags.writeable and not scan.counts.flags.writeable
    phi[0] = 1.0
    assert scan.phi[0] == 0.0


def test_fringe_scans_compare_and_hash_by_identity():
    # as ScatteringMatrix does: comparing the array fields raised ValueError, and hashing them TypeError
    phi = np.linspace(0, 2 * np.pi, 21)
    counts = np.arange(21)
    scan, twin = FringeScan(phi=phi, counts=counts), FringeScan(phi=phi, counts=counts)
    assert scan == scan and scan != twin
    assert hash(scan) == hash(scan) and len({scan, twin, scan}) == 2


@pytest.mark.parametrize("field,value", [("phi", math.nan)])
def test_fringe_scan_rejects_nonfinite_entries(field, value):
    arrays = {"phi": np.linspace(0, 2 * np.pi, 21), "counts": np.ones(21, dtype=np.int64)}
    arrays[field][3] = value
    with pytest.raises(ConfigError):
        FringeScan(**arrays)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("knob", ["sigma_phi", "background_fraction"])
def test_scan_fringes_rejects_nonfinite_noise_knobs(knob, value):
    sm = generate_medium(MediumConfig(n_in=16, m_out=8, seed=1010))
    with pytest.raises(ConfigError, match=f"{knob} must be finite"):
        scan_fringes(sm, sm, 0, 1, **{knob: value})


@pytest.mark.parametrize("sampling,counts_per_step", [("poisson", 1e19), ("expected", 1e30)])
def test_scan_fringes_rejects_counts_beyond_the_poisson_sampler(sampling, counts_per_step):
    sm = generate_medium(MediumConfig(n_in=16, m_out=8, seed=1011))
    with pytest.raises(ConfigError, match="counts_per_step"):
        scan_fringes(sm, sm, 0, 1, counts_per_step=counts_per_step, sampling=sampling)


@pytest.mark.parametrize("sampling", ["poisson", "expected"])
def test_scan_fringes_rejects_a_background_whose_means_overflow(sampling):
    # background_fraction * mean_total overflows, so every mean is inf / inf = NaN
    sm = generate_medium(MediumConfig(n_in=16, m_out=8, seed=1011))
    with pytest.raises(ConfigError, match="counts_per_step=4000.0, background_fraction=1e\\+308"):
        scan_fringes(sm, sm, 0, 1, counts_per_step=4000.0, sampling=sampling, background_fraction=1e308)


def test_scan_fringes_takes_every_step_count():
    # 2*pi * (n - 1) / (n - 1) rounds an ulp above 2*pi at n = 14, 27, 48, ..., which FringeScan refused
    sm = generate_medium(MediumConfig(n_in=4, m_out=2, seed=1012))
    for n_steps in range(5, 200):
        assert scan_fringes(sm, sm, 0, 1, n_steps=n_steps, sampling="expected").phi[-1] == pytest.approx(2 * np.pi)


def test_scan_fringes_ideal_shape():
    sm = generate_medium(MediumConfig(n_in=1024, m_out=64, seed=1000))
    scan = scan_fringes(sm, sm, 5, 20, counts_per_step=1e9, seed=0, sampling="expected")
    assert scan.phi[0] == 0.0 and scan.phi[-1] == pytest.approx(2 * np.pi)
    fit = fit_visibility(scan)
    assert fit.visibility > 0.995
    assert fit.residual_rms / fit.offset < 0.02
    # counts track the 1 + cos template
    template = 1 + fit.visibility * np.cos(scan.phi - fit.phase0)
    correlation = np.corrcoef(scan.counts, template)[0, 1]
    assert correlation > 0.999


def scan_fields(s_masks, target_a, target_b, n_steps):
    for phi in 2 * np.pi * np.arange(n_steps) / (n_steps - 1):
        weights = dual_target_weights(s_masks, target_a, target_b, [phi])
        yield conjugate_fields(s_masks, (target_a, target_b), weights)[0]


def field_error(s_masks, targets, weights):
    """Largest distance between the unit-phasor fields and apply_mask of the masks, over the weight rows."""
    fields = conjugate_fields(s_masks, targets, weights)
    masks = conjugate_phases(s_masks, targets, weights)
    return max(float(np.max(np.abs(field - apply_mask(mask)))) for field, mask in zip(fields, masks))


def scan_field_error(s_masks, target_a, target_b):
    phis = 2 * np.pi * np.arange(21) / 20
    return field_error(s_masks, (target_a, target_b), dual_target_weights(s_masks, target_a, target_b, phis))


def test_scan_fields_lie_within_1e_15_of_the_masks_fields():
    sm = generate_medium(MediumConfig(n_in=1024, m_out=40, seed=1013))
    assert max(scan_field_error(sm, a, b) for a in range(10) for b in range(20, 40)) <= 1e-15  # 200 pairs
    # rows of tiny and huge entries; one target with unit weight makes the superposition itself that small or
    # large, where an unscaled squared norm would lose its digits to underflow
    for tiny, huge in ((1e-160, 1.0), (1.0, 1e150), (1e-160, 1e150)):
        rows = ScatteringMatrix(sm.matrix[:2] * [[tiny], [huge]])
        assert scan_field_error(rows, 0, 1) <= 1e-15
        for target in (0, 1):
            assert field_error(rows, (target,), [[1.0]]) <= 1e-15
    # squared norms that would overflow or be subnormal: 3-4-5 triangles, exact at every step
    z = np.array([complex(3 * 2.0 ** 1000, 4 * 2.0 ** 1000), complex(3 * 2.0 ** -1070, -4 * 2.0 ** -1070)])
    assert np.array_equal(_unit_phasors(z), [0.6 + 0.8j, 0.6 - 0.8j])
    # an entry where the superposition is exactly zero gets field 1, the phase 0 of the mask
    rows = sm.matrix[[0, 0]]
    rows[:, 5] = (1.0, -1.0)  # rows of equal norm, so equal weights at relative phase 0
    rows = ScatteringMatrix(rows)
    weights = dual_target_weights(rows, 0, 1, [0.0])
    assert conjugate_phases(rows, (0, 1), weights)[0, 5] == 0.0
    assert conjugate_fields(rows, (0, 1), weights)[0, 5] == 1.0
    assert scan_field_error(rows, 0, 1) <= 1e-15


def test_scan_fringes_two_rows_match_full_propagation():
    sm = generate_medium(MediumConfig(n_in=64, m_out=48, seed=1004))
    estimate = measure_sm(sm, CalibrationConfig(photons_per_measurement=1e4, reference_seed=1005, noise_seed=1006))
    a, b = 7, 30
    for field in scan_fields(estimate.matrix, a, b, 21):
        assert np.array_equal(propagate(ScatteringMatrix(sm.matrix[[a, b]]), field), propagate(sm, field)[[a, b]])

    # reference scan through the full field, as the expected counts see it
    ports, totals = [], []
    for field in scan_fields(estimate.matrix, a, b, 21):
        out = propagate(sm, field)
        totals.append(abs(out[a]) ** 2 + abs(out[b]) ** 2)
        ports.append(totals[-1] / 2.0 + math.exp(-0.5 * 0.7 ** 2) * float(np.real(np.conj(out[a]) * out[b])))
    means = 1e15 * np.array(ports) / np.mean(totals)
    scan = scan_fringes(sm, estimate.matrix, a, b, counts_per_step=1e15, sigma_phi=0.7, sampling="expected")
    assert np.array_equal(scan.counts, np.rint(means).astype(np.int64))


def per_step_scan(s_true, s_masks, a, b, n_steps, sigma_phi, background_fraction, counts_per_step):
    """The expected counts of a scan, one mask and one propagation per step."""
    targets = ScatteringMatrix(s_true.matrix[[a, b]])
    ports, totals = [], []
    for field in scan_fields(s_masks, a, b, n_steps):
        a_a, a_b = propagate(targets, field)
        totals.append(abs(a_a) ** 2 + abs(a_b) ** 2)
        ports.append(totals[-1] / 2.0 + math.exp(-0.5 * sigma_phi ** 2) * float(np.real(np.conj(a_a) * a_b)))
    mean_total = float(np.mean(totals))
    means = counts_per_step * (np.array(ports) + background_fraction * mean_total / 2.0) \
        / (mean_total * (1.0 + background_fraction))
    return np.rint(np.clip(means, 0.0, None)).astype(np.int64)


@settings(max_examples=40, deadline=None)
@given(n_in=st.integers(1, 1100), m_out=st.integers(2, 70), data=st.data(),
       n_steps=st.sampled_from([5, 6, 21]), sigma_phi=st.sampled_from([0.0, 0.7, 1.3]),
       background_fraction=st.sampled_from([0.0, 0.25]), pair=st.booleans())
def test_scan_fringes_equals_the_per_step_composition(n_in, m_out, data, n_steps, sigma_phi, background_fraction,
                                                      pair):
    # 2**51 counts per step: a one-ulp change in a step's mean changes its rounded count
    s_true = generate_medium(MediumConfig(n_in=n_in, m_out=m_out, seed=1020))
    s_masks = generate_medium(MediumConfig(n_in=n_in, m_out=m_out, seed=1021))
    a, b = data.draw(st.lists(st.integers(0, m_out - 1), min_size=2, max_size=2, unique=True))
    if pair:  # the harness scans the two target rows of each matrix, as targets (0, 1)
        s_true, s_masks = ScatteringMatrix(s_true.matrix[[a, b]]), ScatteringMatrix(s_masks.matrix[[a, b]])
        a, b = 0, 1
    knobs = dict(sigma_phi=sigma_phi, background_fraction=background_fraction, counts_per_step=2.0 ** 51)
    scan = scan_fringes(s_true, s_masks, a, b, n_steps=n_steps, sampling="expected", **knobs)
    assert np.array_equal(scan.phi, 2 * np.pi * np.arange(n_steps) / (n_steps - 1))
    assert np.array_equal(scan.counts, per_step_scan(s_true, s_masks, a, b, n_steps, **knobs))


def test_scan_fringes_keeps_the_per_step_error_types():
    sm = generate_medium(MediumConfig(n_in=40, m_out=6, seed=1022))

    def masks_with(row, value):
        matrix = sm.matrix.copy()
        matrix[row] = value
        return ScatteringMatrix(matrix)

    for value in (0.0, 5e-324, 1e-310 + 1e-310j):  # a zero row, and rows whose squared norm underflows to 0
        for a, b in ((2, 4), (4, 2)):
            with pytest.raises(DegenerateTargetError, match="must both carry coupling"):
                scan_fringes(sm, masks_with(2, value), a, b)
    # squares that are subnormal but not 0: the weight 1/norm is finite, and the scan runs
    tiny = masks_with(2, 1e-160)
    knobs = dict(sigma_phi=0.3, background_fraction=0.0, counts_per_step=2.0 ** 51)
    assert np.array_equal(scan_fringes(sm, tiny, 2, 4, sampling="expected", **knobs).counts,
                          per_step_scan(sm, tiny, 2, 4, 21, **knobs))
    with pytest.raises(ConfigError, match="distinct"):
        scan_fringes(sm, sm, 3, 3)
    opposite = masks_with(2, 1.0).matrix.copy()
    opposite[4] = -1.0
    with pytest.raises(DegenerateTargetError, match="cancels"):  # at relative phase 0 only
        scan_fringes(sm, ScatteringMatrix(opposite), 2, 4)
    dark = sm.matrix.copy()
    dark[[2, 4]] = 0.0
    with pytest.raises(DegenerateFieldError):
        scan_fringes(ScatteringMatrix(dark), sm, 2, 4)


def test_scan_fringes_rejects_bad_targets_and_shapes():
    sm = generate_medium(MediumConfig(n_in=32, m_out=16, seed=1007))
    for a, b in ((3, 16), (-1, 3)):
        with pytest.raises(DimensionError):
            scan_fringes(sm, sm, a, b)
    taller = generate_medium(MediumConfig(n_in=32, m_out=40, seed=1008))
    wider = generate_medium(MediumConfig(n_in=48, m_out=16, seed=1009))
    for s_true, s_masks, a, b in ((sm, taller, 3, 20), (taller, sm, 3, 5), (sm, wider, 3, 5)):
        with pytest.raises(DimensionError):
            scan_fringes(s_true, s_masks, a, b)


def test_scan_fringes_zero_budget_then_fit_error():
    sm = generate_medium(MediumConfig(n_in=256, m_out=64, seed=1001))
    scan = scan_fringes(sm, sm, 1, 2, counts_per_step=0.0, seed=3)
    assert np.all(scan.counts == 0)
    with pytest.raises(StatisticsError):
        fit_visibility(scan)


def test_scan_fringes_dephasing_reduces_visibility_monotonically():
    sm = generate_medium(MediumConfig(n_in=512, m_out=64, seed=1002))
    values = [
        fit_visibility(scan_fringes(sm, sm, 4, 40, counts_per_step=1e8, seed=0,
                                    sigma_phi=sigma, sampling="expected")).visibility
        for sigma in (0.0, 0.4, 0.7, 1.0)
    ]
    assert values[0] > values[1] > values[2] > values[3]
    # the dephasing factor is exactly exp(-sigma^2/2) on the cross term
    assert values[2] / values[0] == pytest.approx(math.exp(-0.5 * 0.7 ** 2), rel=0.02)


def test_scan_fringes_takes_a_dephasing_width_whose_square_overflows():
    sm = generate_medium(MediumConfig(n_in=64, m_out=16, seed=1010))
    # the damping exp(-sigma^2/2) is exactly 0.0 from sigma ~38.6 on, so every wider scan counts as one at 40
    assert math.exp(-0.5 * 38.6 ** 2) > 0.0 and math.exp(-0.5 * 39.0 ** 2) == 0.0
    for sampling in SAMPLINGS:
        flat = scan_bytes(scan_fringes(sm, sm, 2, 9, seed=5, sigma_phi=40.0, sampling=sampling))
        for sigma_phi in (1e200, np.float32(1e30), 10 ** 200):
            assert scan_bytes(scan_fringes(sm, sm, 2, 9, seed=5, sigma_phi=sigma_phi, sampling=sampling)) == flat


def test_scan_fringes_background_reduces_visibility():
    sm = generate_medium(MediumConfig(n_in=512, m_out=64, seed=1003))
    clean = fit_visibility(scan_fringes(sm, sm, 4, 40, counts_per_step=1e8, seed=0, sampling="expected"))
    dirty = fit_visibility(scan_fringes(sm, sm, 4, 40, counts_per_step=1e8, seed=0,
                                        background_fraction=0.25, sampling="expected"))
    # dilution ~ 1/(1+beta); the duplicated 0/2pi endpoint skews the scan mean slightly
    assert dirty.visibility == pytest.approx(clean.visibility / 1.25, rel=0.03)
    assert dirty.visibility < clean.visibility


# --- the memo of expected scans ---

def scan_pair(seed, n_in=64, m_out=12):
    """A medium and its noisy calibration estimate, as (s_true, s_masks)."""
    sm = generate_medium(MediumConfig(n_in=n_in, m_out=m_out, seed=seed))
    return sm, measure_sm(sm, CalibrationConfig(photons_per_measurement=1e4, noise_seed=seed + 1)).matrix


def copies(*matrices):
    """New ScatteringMatrix objects with the same entries: the memo has never seen them."""
    return [ScatteringMatrix(m.matrix) for m in matrices]


def stored(s_true, s_masks):
    return tomography._SCANS[s_true][s_masks]


def scan_key(a, b, n_steps=21, counts_per_step=4000.0, sigma_phi=0.0, background_fraction=0.0):
    """The memo key of a scan whose knobs are Python floats."""
    return a, b, n_steps, counts_per_step, sigma_phi, background_fraction, float, float, float


def count_builds(monkeypatch):
    """The argument tuples of every memo miss from now on."""
    builds = []
    build = tomography._expected_scan
    monkeypatch.setattr(tomography, "_expected_scan", lambda *args: builds.append(args) or build(*args))
    return builds


def scan_bytes(scan):
    return scan.phi.tobytes(), scan.counts.tobytes()


def test_scan_memo_hits_give_the_bytes_of_misses(monkeypatch):
    s_true, s_masks = scan_pair(1030)
    scan_fringes(s_true, s_masks, 2, 9)
    assert list(stored(s_true, s_masks)) == [scan_key(2, 9)]
    builds = count_builds(monkeypatch)
    settings = []
    for sigma_phi in (0.0, 0.7, 1.3):
        for background_fraction in (0.0, 0.25):
            for sampling in SAMPLINGS:
                for seed in (0, 7, 2 ** 40):
                    knobs = dict(sigma_phi=sigma_phi, background_fraction=background_fraction, sampling=sampling,
                                 seed=seed, counts_per_step=2.0 ** 51 if sampling == "expected" else 4000.0)
                    hit = scan_fringes(s_true, s_masks, 2, 9, **knobs)
                    miss = scan_fringes(*copies(s_true, s_masks), 2, 9, **knobs)
                    assert scan_bytes(hit) == scan_bytes(miss)
                    assert dataclasses.astuple(fit_visibility(hit)) == dataclasses.astuple(fit_visibility(miss))
                setting = (knobs["counts_per_step"], sigma_phi, background_fraction)
                if setting != (4000.0, 0.0, 0.0):
                    settings.append(setting)
    # a build for every miss, and on the stored pair one per new noise setting: no seed or sampling builds
    assert sum(args[0] is not s_true for args in builds) == 36
    assert [args[5:8] for args in builds if args[0] is s_true] == settings
    # float32(0.7) equals its float64 value, but the noise model squares it in float32: a noise setting of its own
    for sigma_phi in (np.float32(0.7), float(np.float32(0.7)), np.float64(0.7), 0.7):
        knobs = dict(sigma_phi=sigma_phi, sampling="expected", counts_per_step=2.0 ** 51)
        assert scan_bytes(scan_fringes(s_true, s_masks, 2, 9, **knobs)) \
            == scan_bytes(scan_fringes(*copies(s_true, s_masks), 2, 9, **knobs))
    # one pair's targets in either order, and other step counts, are entries of their own
    for a, b, n_steps in ((9, 2, 21), (2, 9, 5), (2, 9, 22)):
        hit = scan_fringes(s_true, s_masks, a, b, n_steps=n_steps)
        miss = scan_fringes(*copies(s_true, s_masks), a, b, n_steps=n_steps)
        assert scan_bytes(hit) == scan_bytes(miss)
        assert scan_key(a, b, n_steps) in stored(s_true, s_masks)


def test_scan_memo_hits_still_check_their_arguments():
    s_true, s_masks = scan_pair(1031)
    scan_fringes(s_true, s_masks, 0, 1)
    assert scan_key(0, 1) in stored(s_true, s_masks)
    bad_calls = [
        (ConfigError, dict(target_b=True)),
        (ConfigError, dict(target_b=1.0)),
        (DimensionError, dict(target_b=-1)),
        (DimensionError, dict(target_b=12)),
        (ConfigError, dict(target_b=0)),
        (ConfigError, dict(n_steps=4)),
        (ConfigError, dict(n_steps=21.0)),
        (ConfigError, dict(seed=-1)),
        (ConfigError, dict(seed=1.5)),
        (ConfigError, dict(sigma_phi=math.nan)),
        (ConfigError, dict(background_fraction=math.nan)),
        (ConfigError, dict(counts_per_step=math.nan)),
        (ConfigError, dict(sampling="mean")),
    ]
    for error, knobs in bad_calls:
        with pytest.raises(error):
            scan_fringes(s_true, s_masks, **{"target_a": 0, "target_b": 1, **knobs})
    keys = list(stored(s_true, s_masks))
    for sampling in SAMPLINGS + SAMPLINGS:  # a budget beyond the Poisson sampler fails on every call
        with pytest.raises(ConfigError, match="sampler"):
            scan_fringes(s_true, s_masks, 0, 1, counts_per_step=1e300, sampling=sampling)
    assert list(stored(s_true, s_masks)) == keys


def test_scan_memo_survives_a_caller_writing_to_a_scan():
    s_true, s_masks = scan_pair(1035)
    before = scan_bytes(scan_fringes(s_true, s_masks, 1, 6))
    for scan in (scan_fringes(s_true, s_masks, 1, 6), scan_fringes(s_true, s_masks, 1, 6, sampling="expected")):
        for array in (scan.phi, scan.counts):
            try:
                array.setflags(write=True)
                array[:] = 3
            except ValueError:  # numpy refuses to make a view of a read-only array writable
                pass
    assert list(stored(s_true, s_masks)) == [scan_key(1, 6)]
    phi, _, means = stored(s_true, s_masks)[scan_key(1, 6)]
    assert not phi.flags.writeable and not means.flags.writeable
    assert scan_bytes(scan_fringes(s_true, s_masks, 1, 6)) == before


def test_scan_memo_keeps_no_matrix_alive():
    s_true, s_masks = scan_pair(1032)
    scan = scan_fringes(s_true, s_masks, 3, 4)
    scan_fringes(s_true, s_true, 3, 4)
    gc.collect()  # matrices that earlier tests left to the collector leave the memo now, not below
    pairs = len(tomography._SCANS)
    masks_ref = weakref.ref(s_masks)
    del s_masks  # the estimate dies while its truth lives on
    gc.collect()
    assert masks_ref() is None
    assert list(tomography._SCANS[s_true]) == [s_true]
    true_ref = weakref.ref(s_true)
    del s_true
    gc.collect()
    assert true_ref() is None
    assert len(tomography._SCANS) == pairs - 1
    assert scan.counts.sum() > 0  # the scan outlives its matrices


def test_scan_memo_keeps_at_most_its_bound_per_matrix_pair():
    s_true, s_masks = scan_pair(1033, n_in=8, m_out=4)
    bound = tomography._SCANS_PER_PAIR
    keys = [scan_key(a, b, n_steps) for n_steps in range(5, 5 + bound) for a, b in ((0, 1), (2, 3))]
    for a, b, n_steps, *_ in keys:
        scan_fringes(s_true, s_masks, a, b, n_steps=n_steps, sampling="expected")
    assert list(stored(s_true, s_masks)) == keys[-bound:]  # the oldest dropped first
    for phi, _, means in stored(s_true, s_masks).values():
        assert not phi.flags.writeable and not means.flags.writeable
    # another pair on one of the matrices has its own entries
    scan_fringes(s_true, s_true, 0, 1, sampling="expected")
    assert list(stored(s_true, s_true)) == [scan_key(0, 1)]
    assert len(stored(s_true, s_masks)) == bound
    # noise settings on one target pair share the same bound
    settings = [(4000.0, 0.01 * i, 0.05 * (i % 3)) for i in range(bound + 5)]
    for counts_per_step, sigma_phi, background_fraction in settings:
        scan_fringes(s_true, s_masks, 2, 3, n_steps=4 + bound, counts_per_step=counts_per_step, sigma_phi=sigma_phi,
                     background_fraction=background_fraction)
    assert list(stored(s_true, s_masks)) == [scan_key(2, 3, 4 + bound, *setting) for setting in settings[-bound:]]


def test_scan_memo_builds_once_per_setting_of_the_scan_sweep_ladder(monkeypatch):
    # scan_sweep's traffic: 4 target pairs x 4 sigma_phi, each op with its own seed; the sampling varies here too
    s_true, s_masks = scan_pair(1037, n_in=16, m_out=8)
    pairs = ((0, 1), (5, 2), (3, 7), (6, 4))
    sigmas = (0.0, 0.4, 0.7, 1.0)
    builds = count_builds(monkeypatch)
    for index in range(2001):
        a, b = pairs[(index // len(sigmas)) % len(pairs)]
        scan_fringes(s_true, s_masks, a, b, seed=index, sigma_phi=sigmas[index % len(sigmas)],
                     sampling=SAMPLINGS[(index // 3) % 2])
    assert len(builds) == 16  # 1985 hits
    assert list(stored(s_true, s_masks)) == [scan_key(a, b, sigma_phi=sigma) for a, b in pairs for sigma in sigmas]


def test_scan_memo_is_safe_from_several_threads():
    s_true, s_masks = scan_pair(1034, n_in=32, m_out=6)
    bound = tomography._SCANS_PER_PAIR
    # more keys than the bound, so the threads insert, hit and drop entries at once: step counts and noise settings
    calls = [dict(target_a=a, target_b=b, n_steps=n_steps, seed=n_steps, sigma_phi=0.1 * a)
             for n_steps in range(5, 5 + bound // 2 + 4) for a, b in ((0, 5), (4, 1))]
    calls += [dict(target_a=0, target_b=5, n_steps=5, seed=i, sigma_phi=0.02 * i) for i in range(40)]
    serial = [scan_bytes(scan_fringes(*copies(s_true, s_masks), **call)) for call in calls]
    results = [None] * 4
    start = threading.Barrier(len(results))

    def worker(index):
        start.wait(timeout=60.0)
        order = list(range(index, len(calls))) + list(range(index))  # each thread starts elsewhere
        results[index] = [(i, scan_bytes(scan_fringes(s_true, s_masks, **calls[i]))) for i in order + order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(index,)) for index in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for result in results:
        assert len(result) == 2 * len(calls) and all(scan == serial[i] for i, scan in result)
    assert len(stored(s_true, s_masks)) <= bound


def test_fit_visibility_noiseless_recovery_within_1e6():
    scan = synthetic_scan(offset=1e9, visibility=0.5, phase0=1.234)
    fit = fit_visibility(scan)
    assert abs(fit.visibility - 0.5) < 1e-6
    assert abs(fit.phase0 - 1.234) < 1e-6
    assert abs(fit.offset - 1e9) / 1e9 < 1e-6


def test_fit_visibility_exact_full_contrast():
    scan = synthetic_scan(offset=1e8, visibility=1.0, phase0=0.0)
    fit = fit_visibility(scan)
    assert fit.visibility == pytest.approx(1.0, abs=1e-3)
    assert fit.visibility_err < 1e-3


def test_fit_visibility_poisson_ensemble_recovers_078():
    rng = np.random.default_rng(77)
    values = [
        fit_visibility(synthetic_scan(offset=1000.0, visibility=0.78, phase0=0.6, rng=rng)).visibility
        for _ in range(100)
    ]
    assert abs(np.mean(values) - 0.78) < 0.04


def test_fit_visibility_constant_counts():
    scan = FringeScan(
        phi=2 * np.pi * np.arange(21) / 20,
        counts=np.full(21, 500, dtype=np.int64),
    )
    fit = fit_visibility(scan)
    assert fit.visibility == pytest.approx(0.0, abs=1e-9)


def test_fit_visibility_errors():
    phi = 2 * np.pi * np.arange(21) / 20
    with pytest.raises(StatisticsError):
        fit_visibility(FringeScan(phi=phi, counts=np.zeros(21, dtype=np.int64)))


@pytest.mark.parametrize("offset", [1e3, 1e5, 1e7, 1e9])
@pytest.mark.parametrize("visibility", [0.1, 0.5, 0.78, 1.0])
def test_fit_visibility_phase0_lies_below_two_pi(offset, visibility):
    # the fitted angle is a hair below 0, which % 2*pi rounds up to exactly 2*pi
    fit = fit_visibility(synthetic_scan(offset=offset, visibility=visibility, phase0=0.0))
    assert 0.0 <= fit.phase0 < 2 * np.pi
    assert min(fit.phase0, 2 * np.pi - fit.phase0) < 1e-6


@pytest.mark.parametrize("other", [0.0, 2 * np.pi, np.pi])
def test_fit_visibility_refuses_phases_that_do_not_span_the_basis(other):
    # steps alternating 0 and 2*pi (cos = 1, sin ~ 0) or 0 and pi (sin ~ 0): no sin column to fit
    phi = np.where(np.arange(21) % 2 == 1, other, 0.0)
    scan = FringeScan(phi=phi, counts=np.arange(100, 241, 7))  # the constructor takes them; the fit refuses them
    with pytest.raises(StatisticsError, match="do not span"):
        fit_visibility(scan)


def table_solve(phases, counts, weights):
    """The fit's solve as a C-ordered (n, 15) table summed by one row-ordered np.add.reduce: the reference bits."""
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
    if tomography._adjugate(*sums[9:])[1] <= 1e-12 * n ** 3:
        raise StatisticsError("fringe scan phases do not span the fit basis")
    adjugate, det = tomography._adjugate(*sums[:6])
    if not det > 0.0:
        raise StatisticsError("the weighted normal equations of the fringe fit are singular")
    c0, c1, c2 = tomography._adjugate_solve(adjugate, det, sums[6:9])
    residuals = counts - (c0 + c1 * cos_phi + c2 * sin_phi)
    d0, d1, d2 = tomography._adjugate_solve(adjugate, det,
                                            np.add.reduce(table[:, :3] * residuals[:, None], axis=0).tolist())
    c0, c1, c2 = c0 + d0, c1 + d1, c2 + d2
    return (c0, c1, c2), counts - (c0 + c1 * cos_phi + c2 * sin_phi), adjugate, det


def outcome(call, *args):
    """A call's result (a fit as its tuple), or its error's type and message."""
    try:
        result = call(*args)
    except StatisticsError as error:
        return type(error), str(error)
    return dataclasses.astuple(result) if isinstance(result, tomography.VisibilityFit) else result


def test_fit_keeps_the_bits_of_the_row_ordered_table_solve(monkeypatch):
    s_true, s_masks = scan_pair(1036, n_in=8, m_out=4)
    rng = np.random.default_rng(1036)
    scans = []
    for case in range(240):
        n_steps = int(rng.integers(5, 102))
        counts = rng.integers(0, int(10 ** rng.uniform(0, 6)), n_steps, endpoint=True)
        counts[rng.random(n_steps) < 0.2] = 0
        if case % 40 == 0:
            counts[:] = 0
        if case % 3 == 2:  # uneven phases, and sometimes phases that do not span the basis
            phi = np.sort(rng.uniform(0.0, 2 * np.pi, n_steps)) if case % 2 else np.where(counts % 2 == 1, np.pi, 0.0)
            scans.append(FringeScan(phi, counts))
        else:  # the same scan built both ways: public, and a memo scan with the memo's own phases and basis
            memo = scan_fringes(s_true, s_masks, 0, 1, n_steps=n_steps, sampling="expected")
            scans += [FringeScan(memo.phi, counts), FringeScan._adopt(memo.phi, memo._basis, counts)]
    for scan in scans:
        counts = scan.counts.astype(np.float64)
        weights = 1.0 / np.maximum(counts, 1.0)
        expected = outcome(table_solve, scan.phi, counts, weights)
        solved = outcome(tomography._solve_fringe, scan._basis, counts.tolist(), weights.tolist())
        if isinstance(expected[0], type):
            assert solved == expected
        else:
            assert solved[0] == expected[0] and solved[2:] == expected[2:]
            assert solved[1].tobytes() == expected[1].tobytes()
        with monkeypatch.context() as patch:
            patch.setattr(tomography, "_solve_fringe", lambda basis, y, w: table_solve(scan.phi, counts, weights))
            reference = outcome(fit_visibility, scan)
        assert outcome(fit_visibility, scan) == reference


def lapack_fit(scan):
    """The fit by LAPACK least squares on the sqrt-weighted design, and its covariance by inv; V > 0 assumed."""
    counts = scan.counts.astype(np.float64)
    weights = 1.0 / np.maximum(counts, 1.0)
    design = np.column_stack([np.ones_like(scan.phi), np.cos(scan.phi), np.sin(scan.phi)])
    sqrt_w = np.sqrt(weights)
    coef = np.linalg.lstsq(design * sqrt_w[:, None], counts * sqrt_w, rcond=None)[0]
    covariance = np.linalg.inv(design.T @ (weights[:, None] * design))
    c0, c1, c2 = coef
    amplitude = math.hypot(c1, c2)
    grad = np.array([-amplitude / c0 ** 2, c1 / (amplitude * c0), c2 / (amplitude * c0)])
    return (min(amplitude / c0, 1.0), math.sqrt(grad @ covariance @ grad), c0, math.atan2(c2, c1) % (2 * np.pi),
            math.sqrt(np.mean((counts - design @ coef) ** 2)))


@pytest.mark.parametrize("n_steps", [5, 21, 101])
@pytest.mark.parametrize("offset,visibility", [(40.0, 0.3), (4000.0, 0.78), (4000.0, 0.99), (1e6, 0.9)])
def test_fit_visibility_matches_a_lapack_least_squares_reference(n_steps, offset, visibility):
    # the adjugate solve is refined once, so it agrees with LAPACK to a few ulps; the residuals cancel
    # counts of size offset, so their rms is compared on that scale
    rng = np.random.default_rng(n_steps)
    for _ in range(20):
        scan = synthetic_scan(offset=offset, visibility=visibility, phase0=2.0, n_steps=n_steps, rng=rng)
        fit = fit_visibility(scan)
        v, v_err, c0, phase0, rms = lapack_fit(scan)
        assert fit.visibility == pytest.approx(v, rel=1e-12)
        assert fit.visibility_err == pytest.approx(v_err, rel=1e-10)
        assert fit.offset == pytest.approx(c0, rel=1e-12)
        assert fit.phase0 == pytest.approx(phase0, abs=1e-12)
        assert fit.residual_rms == pytest.approx(rms, abs=1e-12 * offset)


def test_coherence_from_visibility_reference_values():
    assert coherence_from_visibility(0.78, 4.1e-5, 4.3e-5) == pytest.approx(3.276e-5, rel=1e-12)
    assert coherence_from_visibility(1.0, 0.5, 0.5) == 0.5
    assert coherence_from_visibility(0.0, 0.3, 0.2) == 0.0
    with pytest.raises(ConfigError):
        coherence_from_visibility(1.5, 0.1, 0.1)


def test_concurrence_reference_values():
    value = concurrence(1 - 8.4e-5, 1 / 1.1e10, 3.3e-5)
    assert value == pytest.approx(4.693e-5, abs=2e-8)
    assert concurrence(0.5, 0.02, 0.0) == 0.0
    assert concurrence(0.5, 0.02, 0.2) == pytest.approx(0.2)  # 0.4 - 2*sqrt(0.01)


@pytest.mark.parametrize("d_mag", [math.nan, math.inf])
def test_concurrence_rejects_nonfinite_coherence(d_mag):
    with pytest.raises(ConfigError, match="d_mag must be finite"):
        concurrence(0.5, 0.1, d_mag)


def test_concurrence_error_known_answers():
    # p11 > 0: 4 sigma_d^2 = 4 (0.25 * 0.1)^2 = 0.0025, plus (1 * 0.1)^2 from each of p00 and p11
    state = TwoModeState(p00=0.25, p01=0.25, p10=0.25, p11=0.25, d_mag=0.2, p00_err=0.1, p11_err=0.1)
    assert concurrence_error(state, 0.8, 0.1, 1000) == pytest.approx(0.15, rel=1e-12)
    # p11 = 0: 4 (0.6 / 2)^2 0.1^2 = 0.0036, p00's term vanishes, and p00 / n_T = 0.5 / 50 is added
    state = TwoModeState(p00=0.5, p01=0.25, p10=0.25, p11=0.0, d_mag=0.1, p00_err=0.3, p01_err=0.1)
    assert concurrence_error(state, 0.6, 0.0, 50) == pytest.approx(math.sqrt(0.0136), rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=0, max_value=0.5),
    st.floats(min_value=0, max_value=0.1),
)
def test_concurrence_monotonicity(p00, p11, d, delta):
    base = concurrence(p00, p11, d)
    assert concurrence(p00, p11, min(d + delta, 0.5)) >= base
    assert concurrence(p00, min(p11 + delta, 1.0), d) <= base
    assert 0.0 <= base <= 1.0


def test_poisson_upper_limit_closed_forms():
    assert poisson_upper_limit(0, 0.99) == pytest.approx(math.log(100), abs=1e-6)
    assert poisson_upper_limit(0, 0.5) == pytest.approx(math.log(2), abs=1e-9)
    # root of exp(-lam)(1+lam) = 0.01
    assert poisson_upper_limit(1, 0.99) == pytest.approx(6.638, abs=1e-3)


@pytest.mark.parametrize("n,confidence", [(0, 0.99), (1, 0.99), (2, 0.9), (11, 0.5), (40, 0.999)])
def test_poisson_upper_limit_against_independent_oracle(n, confidence):
    assert poisson_upper_limit(n, confidence) == pytest.approx(upper_limit_oracle(n, confidence), rel=1e-7)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=80), st.floats(min_value=0.01, max_value=0.995))
def test_poisson_upper_limit_plugs_back(n, confidence):
    lam = poisson_upper_limit(n, confidence)
    assert abs(poisson_cdf_by_sum(n, lam) - (1 - confidence)) <= 1e-8
    assert poisson_upper_limit(n + 1, confidence) > lam
    assert poisson_upper_limit(n, min(confidence + 0.004, 0.9999)) > lam


def test_poisson_upper_limit_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        poisson_upper_limit(-1, 0.9)
    with pytest.raises(ConfigError):
        poisson_upper_limit(1, 1.0)
    with pytest.raises(ConfigError):
        poisson_upper_limit(1, 0.0)


@pytest.mark.parametrize("n_obs", [math.nan, math.inf])
def test_poisson_upper_limit_rejects_nonfinite_count(n_obs):
    with pytest.raises(ConfigError, match="n_obs must be finite"):
        poisson_upper_limit(n_obs, 0.99)


def test_concurrence_threshold_reference_case():
    assert concurrence_threshold(int(1.1e10), 3.3e-5, 1 - 8.4e-5) == 11


def test_concurrence_threshold_sentinel_and_boundary():
    assert concurrence_threshold(100, 0.0, 1.0) == -1
    # n_t * d^2 / p00 exactly 5: strict inequality excludes the boundary
    assert concurrence_threshold(5, 1.0, 1.0) == 4


@pytest.mark.parametrize("n_t,d_mag", [(100, math.nan), (100, math.inf), (math.nan, 0.1), (math.inf, 0.1)])
def test_concurrence_threshold_rejects_nonfinite_input(n_t, d_mag):
    with pytest.raises(ConfigError, match="must be finite"):
        concurrence_threshold(n_t, d_mag, 0.5)


def test_concurrence_threshold_rejects_finite_input_whose_bound_overflows():
    with pytest.raises(ConfigError, match=r"n_t \* d_mag\^2 / p00 must be finite"):
        concurrence_threshold(10, 0.5, 1e-320)


def test_concurrence_threshold_consistency_with_concurrence():
    n_t = int(1.1e10)
    d, p00 = 3.3e-5, 1 - 8.4e-5
    threshold = concurrence_threshold(n_t, d, p00)
    assert concurrence(p00, threshold / n_t, d) > 0.0
    assert concurrence(p00, (threshold + 1) / n_t, d) == 0.0


def test_positivity_confidence_reference_values():
    confidence = positivity_confidence(1, 11)
    assert confidence == pytest.approx(1 - math.exp(-11) * 12, rel=1e-9)
    assert confidence == pytest.approx(0.99980, abs=5e-5)
    assert confidence > 0.99


def test_positivity_confidence_boundaries():
    assert positivity_confidence(0, 0) == 0.0
    for n, threshold in ((5, 5), (11, 11), (12, 11)):
        assert positivity_confidence(n, threshold) <= 0.5
    with pytest.raises(ConfigError):
        positivity_confidence(1, -1)


@pytest.mark.parametrize("n_obs,threshold", [(1, math.nan), (math.nan, 11), (1, math.inf), (math.inf, 11)])
def test_positivity_confidence_rejects_nonfinite_input(n_obs, threshold):
    with pytest.raises(ConfigError, match="must be finite"):
        positivity_confidence(n_obs, threshold)


@pytest.mark.parametrize("call,name", [
    (lambda: positivity_confidence(1.5, 11), "n_obs_triples"),
    (lambda: positivity_confidence(1, 11.7), "threshold"),
    (lambda: concurrence_threshold(1.5, 0.5, 0.5), "n_t"),
], ids=["n_obs_triples", "threshold", "n_t"])
def test_counts_reject_non_integers(call, name):
    with pytest.raises(ConfigError, match=f"^{name} must be a (positive|nonnegative) integer"):
        call()


def test_counts_accept_integral_floats_and_numpy_integers():
    expected = positivity_confidence(1, 11)
    assert positivity_confidence(np.int64(1), 11.0) == positivity_confidence(1.0, np.int64(11)) == expected
    assert concurrence_threshold(np.int64(5), 1.0, 1.0) == concurrence_threshold(5.0, 1.0, 1.0) == 4


def test_positivity_confidence_consistent_with_upper_limit():
    # the reported confidence is the largest c whose upper limit fits the threshold
    for n, threshold in ((1, 11), (0, 4), (3, 9)):
        c = positivity_confidence(n, threshold)
        assert poisson_upper_limit(n, c - 1e-9) <= threshold
        assert poisson_upper_limit(n, min(c + 1e-6, 1 - 1e-12)) > threshold


# --- the in-house Poisson tail against scipy.special, which only the tests import ---

def cdf_cases():
    """(n, lam) at the tails and the bulk, wherever scipy's value is at least 1e-300."""
    for lam in (1e-3, 0.5, 11.0, 100.0, 699.0, 701.0, 745.0, 1e3, 1e5, 1e7, 1e9):
        spread = math.sqrt(lam)
        ns = {0, 1, 5, 2 * lam + 10} | {lam + k * spread for k in (-8, -3, 3, 8)}
        for n in sorted({int(n) for n in ns if n >= 0}):
            if pdtr(n, lam) >= 1e-300:
                yield n, lam


@pytest.mark.parametrize("n,lam", list(cdf_cases()))
def test_poisson_cdf_matches_scipy_pdtr(n, lam):
    reference = float(pdtr(n, lam))
    # above lam = 700 the log of the largest term is off by about 1e-16 * |n - lam|
    assert _poisson_cdf(n, lam) == pytest.approx(reference, rel=1e-12 if lam <= 700 else 1e-9, abs=0)


# below confidence 0.01, 1 - confidence has lost the bits that fix a small limit
@pytest.mark.parametrize("confidence", [0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1 - 1e-9])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 11, 20, 40, 79, 80])
def test_poisson_upper_limit_matches_scipy_gammainccinv(n, confidence):
    reference = float(gammainccinv(n + 1, 1.0 - confidence))
    assert poisson_upper_limit(n, confidence) == pytest.approx(reference, rel=1e-12, abs=0)


def test_positivity_confidence_known_answer():
    # the exact tail is 0.96248018589807280120...; scipy's pdtr rounds it one ulp low
    assert positivity_confidence(5, 11) == 0.9624801858980728


def test_poisson_cdf_at_lam_1e7_takes_under_50_ms():
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        _poisson_cdf(10 ** 7, 1e7)
        best = min(best, time.perf_counter() - start)
    assert best < 0.05


def test_fringe_csv_format(tmp_path):
    scan = synthetic_scan(offset=100.0, visibility=0.5, phase0=0.0, n_steps=5)
    path = tmp_path / "fringes.csv"
    _write_csv(path, ("phi", "counts", "duration"),
               ((phi, count, 1.0) for phi, count in zip(scan.phi.tolist(), scan.counts.tolist())))
    lines = path.read_text().splitlines()
    assert lines[0] == "phi,counts,duration"
    assert len(lines) == 6
    assert lines[1] == "0.0,150,1.0"
