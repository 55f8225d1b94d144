"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import math

import numpy as np
import pytest
import scipy.stats

from specklewalk import calibration, medium
from specklewalk import (
    CalibrationConfig,
    ExperimentConfig,
    MediumConfig,
    NoiseConfig,
    ScatteringMatrix,
    SourceConfig,
    apply_mask,
    coherence_from_visibility,
    concurrence,
    concurrence_threshold,
    conjugate_fields,
    conjugate_phases,
    dual_target_weights,
    enhancement,
    estimate_state,
    fit_visibility,
    generate_medium,
    load_smx,
    measure_sm,
    mode_probabilities,
    poisson_upper_limit,
    positivity_confidence,
    propagate,
    random_mask,
    run_focus,
    run_fringes,
    run_full,
    run_tomo,
    scan_fringes,
    simulate_counts,
    sm_fidelity,
    speckle_contrast,
)

P00 = 1 - 8.4e-5
P01 = 4.1e-5
P10 = 4.3e-5
P11 = 1 / 1.1e10
N_T = int(1.1e10)


def check(criterion, ok, detail):
    print(f"\n[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_concurrence_golden_number():
    value = concurrence(P00, P11, 3.3e-5)
    ok = abs(value - 4.69e-5) <= 0.2e-5 and abs(value - 4.6e-5) <= 0.2e-5
    check(1, ok, f"concurrence = {value:.4e} (expect 4.69e-05, within 0.2e-05 of 4.6e-05)")


def test_criterion_02_coherence_golden_number():
    value = coherence_from_visibility(0.78, P01, P10)
    ok = value == pytest.approx(3.276e-5, rel=1e-12) and abs(value - 3.3e-5) <= 0.05e-5
    check(2, ok, f"|d| = {value:.4e} (expect 3.276e-05, within 0.05e-05 of 3.3e-05)")


def test_criterion_03_threshold_replication():
    value = concurrence_threshold(N_T, 3.3e-5, P00)
    check(3, value == 11, f"triple-count threshold = {value} (expect exactly 11)")


def test_criterion_04_confidence_replication():
    value = positivity_confidence(1, 11)
    check(4, value >= 0.99, f"confidence = {value:.5f} (>= 0.99; exact tail 0.99980)")


def test_criterion_05_poisson_limit_oracle():
    lam0 = poisson_upper_limit(0, 0.99)
    lam1 = poisson_upper_limit(1, 0.99)

    # independent oracle: bisection on the hand-rolled CDF sum
    def cdf(n, lam):
        term, total = math.exp(-lam), math.exp(-lam)
        for k in range(1, n + 1):
            term *= lam / k
            total += term
        return total

    def oracle(n, confidence):
        lo, hi = 0.0, 1.0
        while cdf(n, hi) > 1 - confidence:
            hi *= 2
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if cdf(n, mid) > 1 - confidence else (lo, mid)
        return (lo + hi) / 2

    ok = (
        abs(lam0 - math.log(100)) <= 1e-6
        and abs(lam1 - 6.638) <= 1e-3
        and abs(lam1 - oracle(1, 0.99)) <= 1e-6
    )
    check(5, ok, f"upper limits: lam(0,0.99) = {lam0:.8f} (ln 100), lam(1,0.99) = {lam1:.5f} (6.638)")


def test_criterion_06_calibration_correctness():
    worst_fidelity = 1.0
    worst_intensity_gap = 0.0
    for trial in range(20):
        sm = generate_medium(MediumConfig(n_in=64, m_out=64, seed=4000 + trial))
        estimate = measure_sm(sm, CalibrationConfig(reference_seed=4100 + trial))
        worst_fidelity = min(worst_fidelity, float(sm_fidelity(sm, estimate).min()))
        i_true = abs(propagate(sm, apply_mask(conjugate_phases(sm, (17,), [[1.0]])[0]))[17]) ** 2
        i_est = abs(propagate(sm, apply_mask(conjugate_phases(estimate.matrix, (17,), [[1.0]])[0]))[17]) ** 2
        worst_intensity_gap = max(worst_intensity_gap, abs(i_true - i_est) / i_true)
    ok = worst_fidelity >= 1 - 1e-9 and worst_intensity_gap <= 1e-9
    check(6, ok, f"20 noiseless 64x64 calibrations: min row fidelity {worst_fidelity:.12f}, "
                 f"max focused-intensity gap {worst_intensity_gap:.2e}")


def test_criterion_07_focusing_enhancement_and_seven_percent(tmp_path):
    n = 256
    expected = (np.pi / 4) * (n - 1) + 1
    values = [
        enhancement(propagate(sm, apply_mask(conjugate_phases(sm, (11,), [[1.0]])[0])), 11)
        for sm in (generate_medium(MediumConfig(n_in=n, m_out=512, seed=4200 + t)) for t in range(20))
    ]
    mean_enh = float(np.mean(values))

    cfg = ExperimentConfig(
        scenario="focus",
        medium=MediumConfig(n_in=1024, m_out=4096, seed=4321),
        calibration=CalibrationConfig(photons_per_measurement=None, reference_seed=4322),
        source=SourceConfig(),
        noise=NoiseConfig(),
        target_a=96, target_b=288,
        output_dir=str(tmp_path), seed=4323,
    )
    fraction = run_focus(cfg).result["focused_fraction"]

    ok = abs(mean_enh - expected) / expected <= 0.10 and abs(fraction - 0.07) <= 0.02
    check(7, ok, f"mean enhancement {mean_enh:.1f} (expect {expected:.1f} +-10%); "
                 f"focused coincidence fraction {fraction:.4f} (expect 0.07 +-0.02)")


def test_criterion_08_speckle_statistics():
    sm = generate_medium(MediumConfig(n_in=1024, m_out=4096, seed=4400))
    out = propagate(sm, apply_mask(random_mask(1024, seed=4401)))
    intensities = np.abs(out) ** 2
    contrast = speckle_contrast(intensities)
    ks = scipy.stats.kstest(intensities / intensities.mean(), "expon").statistic
    ok = abs(contrast - 1.0) <= 0.05 and ks < 0.03
    check(8, ok, f"speckle contrast {contrast:.4f} (1.00 +-0.05); KS distance to exponential {ks:.4f} (< 0.03)")


def target_pair(medium_cfg, cal_cfg, targets):
    """The true and estimated rows of ``targets``, drawn and calibrated from their own row blocks only.

    Each row block draws from its own streams, so these rows are those of
    ``generate_medium`` and ``measure_sm`` on the whole medium.
    """
    field = calibration.reference_field(medium_cfg.n_in, cal_cfg)
    true_rows, estimated_rows = [], []
    for target in targets:
        block, row = divmod(target, medium.ROW_BLOCK)
        shape = (min(medium.ROW_BLOCK, medium_cfg.m_out - block * medium.ROW_BLOCK), medium_cfg.n_in)
        rows = medium.draw_block(medium_cfg, block, np.empty(shape, dtype=np.complex128))
        estimate = np.empty_like(rows)
        calibration.estimate_block(rows, field, cal_cfg, block, estimate)
        true_rows.append(rows[row])
        estimated_rows.append(estimate[row])
    return ScatteringMatrix(np.array(true_rows)), ScatteringMatrix(np.array(estimated_rows))


def test_criterion_09_fringe_pipeline(tmp_path):
    noiseless_cfg = ExperimentConfig(
        scenario="fringes",
        medium=MediumConfig(n_in=1024, m_out=4096, seed=4500),
        calibration=CalibrationConfig(photons_per_measurement=None, reference_seed=4501),
        source=SourceConfig(),
        noise=NoiseConfig(sigma_phi=0.0, background_fraction=0.0),
        counts_sampling="expected", counts_per_step=1e8,
        target_a=96, target_b=288,
        output_dir=str(tmp_path), seed=4502,
    )
    v_noiseless = run_fringes(noiseless_cfg).result["visibility"]

    tuned = []
    ladder = {0.4: [], 0.7: [], 1.0: []}
    for s in range(100):
        medium_cfg = MediumConfig(n_in=256, m_out=1024, seed=4600 + s)
        cal_cfg = CalibrationConfig(photons_per_measurement=1e4, reference_seed=4700 + s, noise_seed=4800 + s)
        pair, pair_estimate = target_pair(medium_cfg, cal_cfg, (96, 288))
        scan = scan_fringes(pair, pair_estimate, 0, 1, counts_per_step=4000.0,
                            seed=4900 + s, sigma_phi=NoiseConfig().sigma_phi)
        if s == 0:  # the pair is rows 96 and 288 of the whole medium and its estimate, and scans alike
            sm = generate_medium(medium_cfg)
            estimate = measure_sm(sm, cal_cfg)
            assert np.array_equal(pair.matrix, sm.matrix[[96, 288]])
            assert np.array_equal(pair_estimate.matrix, estimate.matrix.matrix[[96, 288]])
            whole = scan_fringes(sm, estimate.matrix, 96, 288, counts_per_step=4000.0,
                                 seed=4900 + s, sigma_phi=NoiseConfig().sigma_phi)
            assert np.array_equal(scan.counts, whole.counts)
        tuned.append(fit_visibility(scan).visibility)
        if s < 10:  # monotonic-degradation property on a sub-ensemble
            for sigma in ladder:
                noisy = scan_fringes(pair, pair_estimate, 0, 1, counts_per_step=4000.0,
                                     seed=4900 + s, sigma_phi=sigma)
                ladder[sigma].append(fit_visibility(noisy).visibility)
    mean_v = float(np.mean(tuned))
    degradation = np.mean(ladder[0.4]) > np.mean(ladder[0.7]) > np.mean(ladder[1.0])

    ok = v_noiseless >= 0.99 and abs(mean_v - 0.78) <= 0.04 and degradation
    check(9, ok, f"noiseless V = {v_noiseless:.4f} (>= 0.99); 100-seed mean V = {mean_v:.4f} "
                 f"(0.78 +-0.04); degradation monotonic in sigma_phi: {degradation}")


def tomo_certificate(cfg):
    """The concurrence and confidence of ``run_tomo(cfg)``, calibrating only the two target blocks.

    The split field is built from the target rows of the estimate, and its
    output from every block's true rows, as in the run's row pass.
    The scan, fit, counts and state then follow ``harness._tomo_stage``.
    """
    pair, pair_estimate = target_pair(cfg.medium, cfg.calibration, (cfg.target_a, cfg.target_b))
    field = conjugate_fields(pair_estimate, (0, 1), dual_target_weights(pair_estimate, 0, 1, [0.0]))[0]
    m_out, n_in = cfg.medium.m_out, cfg.medium.n_in
    split_output = np.concatenate([
        medium.propagate_rows(medium.draw_block(cfg.medium, block, np.empty(
            (min(medium.ROW_BLOCK, m_out - block * medium.ROW_BLOCK), n_in), dtype=np.complex128)), field)
        for block in range(-(-m_out // medium.ROW_BLOCK))])
    scan = scan_fringes(pair, pair_estimate, 0, 1, n_steps=cfg.n_steps, counts_per_step=cfg.counts_per_step,
                        seed=cfg.seed, sigma_phi=cfg.noise.sigma_phi,
                        background_fraction=cfg.noise.background_fraction, sampling=cfg.counts_sampling)
    fit = fit_visibility(scan)
    q_a, q_b = mode_probabilities(split_output, (cfg.target_a, cfg.target_b), cfg.source.collection_efficiency)
    counts = simulate_counts(q_a, q_b, cfg.source, cfg.seed)
    d_raw = coherence_from_visibility(fit.visibility, counts.n_BT / counts.n_T, counts.n_AT / counts.n_T)
    state = estimate_state(counts, d_raw)
    threshold = concurrence_threshold(counts.n_T, state.d_mag, state.p00)
    confidence = positivity_confidence(counts.n_ABT, threshold) if threshold >= 0 else 0.0
    return concurrence(state.p00, state.p11, state.d_mag), confidence


def test_criterion_10_tomography_monte_carlo(tmp_path):
    successes = 0
    for s in range(100):
        cfg = ExperimentConfig(
            scenario="tomo",
            medium=MediumConfig(n_in=256, m_out=1024, seed=5000 + s),
            calibration=CalibrationConfig(photons_per_measurement=1e4,
                                          reference_seed=5100 + s, noise_seed=5200 + s),
            source=SourceConfig(),  # trigger mean 1.1e10, drawn analytically
            noise=NoiseConfig(),
            target_a=96, target_b=288,
            output_dir=str(tmp_path), seed=5300 + s,
        )
        c_value, confidence = tomo_certificate(cfg)
        if s < 3:  # the certificate is run_tomo's, bit for bit
            result = run_tomo(cfg).result
            assert (c_value, confidence) == (result["concurrence"], result["confidence"])
        if c_value > 0.0 and confidence > 0.99:
            successes += 1
    check(10, successes >= 90, f"{successes}/100 seeded runs certified C > 0 at > 99% confidence (need >= 90)")


def test_criterion_11_determinism_and_formats(tmp_path):
    import hashlib
    import os

    out = tmp_path / "run"
    out.mkdir()
    cfg = ExperimentConfig(
        scenario="full",
        medium=MediumConfig(n_in=128, m_out=512, seed=5400),
        calibration=CalibrationConfig(photons_per_measurement=1e4, reference_seed=5401, noise_seed=5402),
        source=SourceConfig(),
        noise=NoiseConfig(),
        target_a=96, target_b=288,
        output_dir=str(out), seed=5403,
    )

    def digest():
        return {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in sorted(os.listdir(out))
        }

    run_full(cfg)
    first = digest()
    run_full(cfg)
    identical = digest() == first

    stored = load_smx(out / "medium.smx")
    lossless = np.array_equal(stored.matrix, generate_medium(cfg.medium).matrix)

    ok = identical and lossless
    check(11, ok, f"replay byte-identical: {identical}; SMX1 round trip lossless: {lossless} "
                  f"({len(first)} emitted files)")
