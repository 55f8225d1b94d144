
import numpy as np
import pytest
from scipy import stats

from specklewalk import calibration, medium, rng
from specklewalk import (
    CalibrationConfig,
    ConfigError,
    DimensionError,
    MediumConfig,
    ScatteringMatrix,
    apply_mask,
    conjugate_phases,
    generate_medium,
    measure_sm,
    propagate,
    random_mask,
    sm_fidelity,
)
from specklewalk.calibration import _GAUSSIAN_FLOOR, SmEstimate, reference_field
from specklewalk.medium import ROW_BLOCK
from specklewalk.harness import _write_csv


def test_config_requires_three_steps():
    with pytest.raises(ConfigError):
        CalibrationConfig(phase_steps=2)
    with pytest.raises(ConfigError):
        CalibrationConfig(photons_per_measurement=0.0)
    assert CalibrationConfig(phase_steps=3).noiseless


def test_reference_field_is_built_once_read_only_with_a_fresh_fields_bytes():
    cfg = CalibrationConfig(photons_per_measurement=1e4, reference_seed=71, noise_seed=72)
    field = reference_field(24, cfg)
    assert reference_field(24, CalibrationConfig(reference_seed=71)) is field
    np.testing.assert_array_equal(field, apply_mask(random_mask(24, 71)), strict=True)
    with pytest.raises(ValueError, match="read-only"):
        field[0] = 0.0
    # a block calibrates against the shared field: its estimate is conj(r) S for r the output of a fresh field
    sm = generate_medium(MediumConfig(n_in=24, m_out=ROW_BLOCK, seed=70))
    estimate = np.empty_like(sm.matrix)
    calibration.estimate_block(sm.matrix, CalibrationConfig(reference_seed=71), 0, estimate)
    reference = propagate(sm, apply_mask(random_mask(24, 71)))
    np.testing.assert_array_equal(estimate, np.conj(reference)[:, None] * sm.matrix, strict=True)


def test_noiseless_rows_equal_conj_reference_times_truth():
    cfg = CalibrationConfig(phase_steps=4, reference_seed=17)
    sm = generate_medium(MediumConfig(n_in=24, m_out=12, seed=16))
    estimate = measure_sm(sm, cfg)
    reference = propagate(sm, reference_field(sm.n_in, cfg))
    expected = np.conj(reference)[:, None] * sm.matrix
    scale = np.abs(expected).max()
    np.testing.assert_allclose(estimate.matrix.matrix, expected, atol=1e-12 * scale)


def test_estimator_matches_brute_force_intensity_sequence():
    # independent oracle: evaluate the four interference intensities by hand
    # for one (m, n) pair and apply the Fourier combination directly
    cfg = CalibrationConfig(phase_steps=4, reference_seed=23)
    sm = generate_medium(MediumConfig(n_in=6, m_out=5, seed=22))
    estimate = measure_sm(sm, cfg)
    reference = propagate(sm, reference_field(sm.n_in, cfg))
    m, n = 2, 4
    acc = 0.0
    for j in range(4):
        theta = 2 * np.pi * j / 4
        intensity = abs(reference[m] + np.exp(1j * theta) * sm.matrix[m, n]) ** 2
        acc += intensity * np.exp(-1j * theta)
    oracle = acc / 4
    assert estimate.matrix.matrix[m, n] == pytest.approx(oracle, rel=1e-12)
    assert oracle == pytest.approx(np.conj(reference[m]) * sm.matrix[m, n], rel=1e-10)


@pytest.mark.parametrize("steps", [3, 4, 5, 7])
def test_fourier_estimator_exact_for_any_step_count(steps):
    cfg = CalibrationConfig(phase_steps=steps, reference_seed=29)
    sm = generate_medium(MediumConfig(n_in=16, m_out=8, seed=28))
    fidelity = sm_fidelity(sm, measure_sm(sm, cfg))
    assert np.all(fidelity >= 1 - 1e-9)


def test_zero_entry_stays_zero_noiseless():
    matrix = np.ones((2, 3), dtype=complex)
    matrix[1, 2] = 0.0
    sm = ScatteringMatrix(matrix)
    estimate = measure_sm(sm, CalibrationConfig(reference_seed=5))
    assert abs(estimate.matrix.matrix[1, 2]) < 1e-14


def test_zero_reference_row_zeroed():
    matrix = np.ones((3, 4), dtype=complex)
    matrix[1, :] = 0.0  # this output sees nothing, so its reference is zero
    sm = ScatteringMatrix(matrix)
    estimate = measure_sm(sm, CalibrationConfig(reference_seed=5))
    assert np.all(estimate.matrix.matrix[1, :] == 0.0)
    assert np.all(estimate.matrix.matrix[[0, 2], :] != 0.0)


def test_fidelity_reference_cases():
    sm = generate_medium(MediumConfig(n_in=32, m_out=10, seed=40))
    exact = measure_sm(sm, CalibrationConfig(reference_seed=41))

    same = sm_fidelity(sm, exact)
    assert np.all(same >= 1 - 1e-9)

    # per-row phase factors leave the correlation untouched
    phased = exact.matrix.matrix * np.exp(1j * np.linspace(0, 3, 10))[:, None]
    assert np.all(sm_fidelity(sm, SmEstimate(ScatteringMatrix(phased))) >= 1 - 1e-9)

    with pytest.raises(DimensionError):
        sm_fidelity(generate_medium(MediumConfig(n_in=8, m_out=10, seed=1)), exact)


def test_fidelity_of_unrelated_matrix_scales_like_inverse_sqrt_n():
    n = 256
    sm = generate_medium(MediumConfig(n_in=n, m_out=64, seed=50))
    other = generate_medium(MediumConfig(n_in=n, m_out=64, seed=51))
    fidelity = sm_fidelity(sm, SmEstimate(other))
    assert abs(np.mean(fidelity) - 1 / np.sqrt(n)) < 0.5 / np.sqrt(n)


def test_shot_noise_at_1e4_photons_keeps_rows_above_99():
    means = []
    for trial in range(10):
        sm = generate_medium(MediumConfig(n_in=64, m_out=64, seed=60 + trial))
        cfg = CalibrationConfig(photons_per_measurement=1e4, reference_seed=80 + trial, noise_seed=90 + trial)
        means.append(float(np.mean(sm_fidelity(sm, measure_sm(sm, cfg)))))
    assert np.mean(means) >= 0.99


def test_noise_monotonicity_ladder():
    ladders = []
    for ppm in (1e4, 1e3, 1e2):
        values = []
        for trial in range(10):
            sm = generate_medium(MediumConfig(n_in=64, m_out=64, seed=200 + trial))
            cfg = CalibrationConfig(photons_per_measurement=ppm, reference_seed=300 + trial, noise_seed=400 + trial)
            values.append(float(np.mean(sm_fidelity(sm, measure_sm(sm, cfg)))))
        ladders.append(np.mean(values))
    assert ladders[0] >= ladders[1] >= ladders[2]


def test_focusing_through_estimate_matches_truth():
    # the row factor conj(r_m) shifts the mask by a global phase only
    for trial in range(5):
        sm = generate_medium(MediumConfig(n_in=64, m_out=64, seed=500 + trial))
        estimate = measure_sm(sm, CalibrationConfig(reference_seed=600 + trial))
        mask_true, = conjugate_phases(sm, (13,), [[1.0]])
        mask_est, = conjugate_phases(estimate.matrix, (13,), [[1.0]])

        # identical up to a global phase <=> the offset phasor has unit coherence
        offset_coherence = abs(np.mean(np.exp(1j * (mask_est - mask_true))))
        assert offset_coherence > 1 - 1e-12

        i_true = abs(propagate(sm, apply_mask(mask_true))[13]) ** 2
        i_est = abs(propagate(sm, apply_mask(mask_est))[13]) ** 2
        assert abs(i_true - i_est) / i_true < 1e-9


def test_fidelity_matches_sum_and_norm_formula():
    sm = generate_medium(MediumConfig(n_in=96, m_out=130, seed=43))
    estimate = measure_sm(sm, CalibrationConfig(photons_per_measurement=30.0, reference_seed=44, noise_seed=45))
    est = estimate.matrix.matrix
    inner = np.abs(np.sum(est * np.conj(sm.matrix), axis=1))
    expected = np.clip(inner / (np.linalg.norm(est, axis=1) * np.linalg.norm(sm.matrix, axis=1)), 0.0, 1.0)
    np.testing.assert_allclose(sm_fidelity(sm, estimate), expected, rtol=0, atol=1e-12)


def test_fidelity_csv(tmp_path):
    path = tmp_path / "fid.csv"
    _write_csv(path, ("row", "fidelity"), enumerate(np.array([1.0, 0.25]).tolist()))
    assert path.read_text() == "row,fidelity\n0,1.0\n1,0.25\n"


def dft_reference(sm, cfg, draw=None):
    """Loop reference of the K-step estimator; ``draw(block, intensity)`` adds shot noise."""
    steps = cfg.phase_steps
    reference = propagate(sm, reference_field(sm.n_in, cfg))
    estimate = np.zeros_like(sm.matrix)
    for block in range(0, sm.m_out, ROW_BLOCK):
        rows = slice(block, block + ROW_BLOCK)
        for j in range(steps):
            phasor = np.exp(2j * np.pi * j / steps)
            intensity = np.abs(reference[rows, None] + phasor * sm.matrix[rows]) ** 2
            if draw is not None:
                intensity = draw(block // ROW_BLOCK, intensity)
            estimate[rows] += intensity * np.conj(phasor)
    return estimate / steps


@pytest.mark.parametrize("steps", [3, 4, 5, 7])
def test_noiseless_closed_form_matches_k_step_dft(steps):
    cfg = CalibrationConfig(phase_steps=steps, reference_seed=31)
    sm = generate_medium(MediumConfig(n_in=40, m_out=150, seed=30))
    expected = dft_reference(sm, cfg)
    got = measure_sm(sm, cfg).matrix.matrix
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def sample_means(sm, cfg):
    """ppm * |r_m + exp(i theta_j) S_mn|^2 for the four steps of K = 4, shape (4, m_out, n_in)."""
    reference = propagate(sm, reference_field(sm.n_in, cfg))
    return np.array([cfg.photons_per_measurement * np.abs(reference[:, None] + 1j ** j * sm.matrix) ** 2
                     for j in range(4)])


def above_floor(sm, cfg):
    """Rows with ppm * min_n(|r|^2 + |S|^2), each Poisson difference's total mean over 2, at or above the Gaussian floor."""
    reference = propagate(sm, reference_field(sm.n_in, cfg))
    power = np.abs(reference[:, None]) ** 2 + np.abs(sm.matrix) ** 2
    return cfg.photons_per_measurement * power.min(axis=1) >= _GAUSSIAN_FLOOR


@pytest.mark.parametrize("steps", [3, 4, 5])
def test_noisy_rows_below_the_floor_draw_exact_poisson_from_their_block_streams(steps):
    # a count off by one in a single step moves an entry by 1 / (K * ppm); a wrong stream moves it by ~sqrt(ppm)
    ppm = 10.0
    cfg = CalibrationConfig(phase_steps=steps, photons_per_measurement=ppm, reference_seed=33, noise_seed=34)
    sm = generate_medium(MediumConfig(n_in=40, m_out=150, seed=32))
    assert not above_floor(sm, cfg).any()
    gens = {}

    def draw(block, intensity):
        gen = gens.setdefault(block, rng.generator(cfg.noise_seed, rng.CALIBRATION_NOISE, block))
        return gen.poisson(intensity * ppm) / ppm

    expected = dft_reference(sm, cfg, draw)
    got = measure_sm(sm, cfg).matrix.matrix
    np.testing.assert_allclose(got, expected, rtol=0, atol=1.01 / (cfg.phase_steps * ppm))
    assert len(gens) == 3


def drawn_in_stream_order(sm, cfg, gaussian):
    """The K = 4 estimate whose ``gaussian`` rows draw normals and other rows exact Poissons, from their block streams.

    Per block: real-part normals of the ``gaussian`` rows, then their
    imaginary parts, then the Poisson counts of the other rows, one phase
    step at a time.
    """
    ppm = cfg.photons_per_measurement
    means = sample_means(sm, cfg)
    reference = propagate(sm, reference_field(sm.n_in, cfg))
    sigma = np.sqrt((np.abs(reference[:, None]) ** 2 + np.abs(sm.matrix) ** 2) / (8 * ppm))
    expected = np.empty_like(sm.matrix)
    for block in range(-(-sm.m_out // ROW_BLOCK)):
        gen = rng.generator(cfg.noise_seed, rng.CALIBRATION_NOISE, block)
        rows = np.arange(block * ROW_BLOCK, min((block + 1) * ROW_BLOCK, sm.m_out))
        normal, exact = rows[gaussian[rows]], rows[~gaussian[rows]]
        z_re = gen.standard_normal((normal.size, sm.n_in))
        z_im = gen.standard_normal((normal.size, sm.n_in))
        expected[normal] = np.conj(reference[normal, None]) * sm.matrix[normal] + sigma[normal] * (z_re + 1j * z_im)
        acc = sum(gen.poisson(means[j, exact]) * 1j ** -j for j in range(4))
        expected[exact] = acc / (4 * ppm)
    return expected


def test_noisy_rows_above_the_floor_draw_normals_first_from_their_block_streams():
    ppm = 300.0
    cfg = CalibrationConfig(photons_per_measurement=ppm, reference_seed=33, noise_seed=34)
    sm = generate_medium(MediumConfig(n_in=40, m_out=150, seed=32))
    gaussian = above_floor(sm, cfg)
    assert 0.1 <= gaussian.mean() <= 0.9  # both samplers draw at least a tenth of the rows
    got = measure_sm(sm, cfg).matrix.matrix
    np.testing.assert_allclose(got, drawn_in_stream_order(sm, cfg, gaussian), rtol=0, atol=1.01 / (4 * ppm))


def test_the_floor_reads_each_rows_power_so_a_dark_fringe_row_at_it_draws_normals():
    # row 0 interferes to exactly zero in column 0 at theta = 0, so its smallest sample mean is ~0, yet its power
    # ppm * min_n(|r|^2 + |S|^2) sits just at the floor; row 1, with no dark fringe, sits just below it
    field = reference_field(2, CalibrationConfig(reference_seed=41))
    a = 0.7 * np.exp(0.3j)

    def lowest_power(row):
        return np.min(np.abs(np.dot(row, field)) ** 2 + np.abs(row) ** 2)

    dark, bright = np.array([a, -a * (1 + field[0]) / field[1]]), np.array([a, 0.5j * a])
    sm = ScatteringMatrix(np.array([dark, bright * np.sqrt((1 - 1e-6) * lowest_power(dark) / lowest_power(bright))]))
    ppm = _GAUSSIAN_FLOOR / lowest_power(dark) * (1 + 1e-9)
    cfg = CalibrationConfig(photons_per_measurement=ppm, reference_seed=41, noise_seed=42)
    gaussian = above_floor(sm, cfg)
    assert gaussian.tolist() == [True, False]
    assert sample_means(sm, cfg)[:, 0].min() < 1e-9 * _GAUSSIAN_FLOOR  # a dark fringe
    got = measure_sm(sm, cfg).matrix.matrix
    np.testing.assert_allclose(got, drawn_in_stream_order(sm, cfg, gaussian), rtol=0, atol=1.01 / (4 * ppm))


@pytest.mark.parametrize("steps, ppm, zero_row, share", [
    (4, 300.0, None, "some"),  # rows above and below the Gaussian floor
    (4, 1e8, None, "all"),  # every row draws normals
    (4, 10.0, None, "none"),  # every row draws Poisson counts
    (3, 1e4, None, None),  # every row Poisson
    (4, None, None, None),  # noiseless
    (4, 300.0, ROW_BLOCK + 6, "some"),  # a row whose reference is zero
])
def test_reused_block_buffers_give_the_bytes_of_the_whole_matrix(steps, ppm, zero_row, share):
    medium_cfg = MediumConfig(n_in=40, m_out=2 * ROW_BLOCK + 22, seed=32)  # the last block is partial
    cfg = CalibrationConfig(phase_steps=steps, photons_per_measurement=ppm, reference_seed=33, noise_seed=34)
    drawn = generate_medium(medium_cfg).matrix
    truth = drawn.copy()
    if zero_row is not None:
        truth[zero_row] = 0.0
    sm = ScatteringMatrix(truth)
    whole = measure_sm(sm, cfg)
    if share is not None:  # the share of rows at or above the Gaussian floor that a K = 4 noisy input reaches
        above = above_floor(sm, cfg).sum()
        assert {"some": 0.1 <= above / sm.m_out <= 0.9, "all": above == sm.m_out, "none": above == 0}[share]
    if zero_row is not None:
        assert not whole.matrix.matrix[zero_row].any()
    # one set of full-block buffers, holding NaN to begin with and reused for every block
    rows_buffer = np.full((ROW_BLOCK, medium_cfg.n_in), np.nan, dtype=complex)
    est_buffer = np.full_like(rows_buffer, np.nan)
    scratch = np.full((3, ROW_BLOCK, medium_cfg.n_in), np.nan)
    for block in range(3):
        size = len(medium.row_block(truth, block))
        rows, est = rows_buffer[:size], est_buffer[:size]
        assert medium.draw_block(medium_cfg, block, rows, scratch[0, :size]).tobytes() \
            == medium.draw_block(medium_cfg, block, np.empty_like(rows)).tobytes() \
            == medium.row_block(drawn, block).tobytes()
        np.copyto(rows, medium.row_block(truth, block))
        allocated = np.empty_like(rows)
        calibration.estimate_block(rows, cfg, block, est, scratch[:, :size])
        calibration.estimate_block(rows, cfg, block, allocated)
        assert est.tobytes() == allocated.tobytes() == medium.row_block(whole.matrix.matrix, block).tobytes()


def test_a_block_calibrated_alone_draws_the_noise_stream_of_its_place():
    cfg = CalibrationConfig(photons_per_measurement=1e4, reference_seed=33, noise_seed=34)
    sm = generate_medium(MediumConfig(n_in=40, m_out=3 * ROW_BLOCK, seed=32))
    whole = measure_sm(sm, cfg).matrix.matrix
    alone = measure_sm(ScatteringMatrix(medium.row_block(sm.matrix, 2)), cfg, first_block=2).matrix.matrix
    assert alone.tobytes() == medium.row_block(whole, 2).tobytes()


def test_noisy_estimate_independent_of_worker_count(monkeypatch):
    cfg = CalibrationConfig(photons_per_measurement=300.0, reference_seed=36, noise_seed=37)
    sm = generate_medium(MediumConfig(n_in=24, m_out=5 * ROW_BLOCK + 7, seed=35))
    assert 0.1 <= above_floor(sm, cfg).mean() <= 0.9  # both samplers draw at least a tenth of the rows
    estimates = []
    for workers in (1, 4):
        monkeypatch.setattr(medium, "_WORKERS", workers)
        estimates.append(measure_sm(sm, cfg).matrix.matrix.tobytes())
    assert estimates[0] == estimates[1]


@pytest.mark.parametrize("ppm", [3e3, 1e4, 1e5])
def test_noisy_estimate_matches_exact_poisson_statistics(ppm):
    cfg = CalibrationConfig(photons_per_measurement=ppm, reference_seed=71, noise_seed=72)
    sm = generate_medium(MediumConfig(n_in=256, m_out=256, seed=70))
    assert above_floor(sm, cfg).any()
    poisson = rng.generator(73)
    exact = dft_reference(sm, cfg, lambda block, intensity: poisson.poisson(intensity * ppm) / ppm)
    estimate = measure_sm(sm, cfg)
    assert stats.ks_2samp(sm_fidelity(sm, estimate), sm_fidelity(sm, SmEstimate(ScatteringMatrix(exact)))).pvalue > 0.01

    # each component of the estimate is conj(r) S plus noise of variance (|r|^2 + |S|^2) / (8 ppm)
    reference = propagate(sm, reference_field(sm.n_in, cfg))
    sigma = np.sqrt((np.abs(reference[:, None]) ** 2 + np.abs(sm.matrix) ** 2) / (8 * ppm))
    residual = (estimate.matrix.matrix - np.conj(reference[:, None]) * sm.matrix) / sigma
    for part in (residual.real, residual.imag):
        assert abs(part.mean()) < 0.02
        assert abs(part.var() - 1.0) < 0.03


def starved_statistics(rows, truth, sigma, estimates):
    """Over ``estimates`` of ``rows``: the mean row fidelity and its standard error over the estimates, and the mean
    square of the noise standardized by ``sigma`` (its variance, as its mean is 0) and that mean's standard error."""
    fidelities, square, fourth, n = [], 0.0, 0.0, 0
    for est in estimates:
        fidelities.append(np.mean(calibration.row_fidelity(rows, est)))
        z = ((est - truth) / sigma).view(float)
        square, fourth, n = square + np.vdot(z, z), fourth + np.vdot(z * z, z * z), n + z.size
    return (np.mean(fidelities), np.std(fidelities, ddof=1) / np.sqrt(len(fidelities)),
            square / n, np.sqrt((fourth / n - (square / n) ** 2) / n))


def test_rows_at_the_floor_keep_the_poisson_paths_fidelity_and_noise_variance_when_photon_starved(monkeypatch):
    # the evidence for _GAUSSIAN_FLOOR: at ppm 30, 100 and 300 the floor sends 39, 395 and 754 of the 1024 rows of this
    # medium to the normals. Calibrated alone over 12 noise seeds, so that every row compared is one whose sampler the
    # floor picks, they must give the mean row fidelity of the all-Poisson path (the floor at infinity) within 3
    # combined standard errors, and standardized noise of variance 1 within 3 standard errors. Each check alone fails
    # a normal scale 10% too large
    sm = generate_medium(MediumConfig(n_in=256, m_out=1024, seed=90))
    reference = propagate(sm, reference_field(sm.n_in, CalibrationConfig(reference_seed=91)))[:, None]
    power = np.abs(reference) ** 2 + np.abs(sm.matrix) ** 2
    for ppm, count in ((30.0, 39), (100.0, 395), (300.0, 754)):
        gaussian = ppm * power.min(axis=1) >= _GAUSSIAN_FLOOR
        assert gaussian.sum() == count
        rows = sm.matrix[gaussian]
        truth, sigma = np.conj(reference[gaussian]) * rows, np.sqrt(power[gaussian] / (8 * ppm))
        cfgs = [CalibrationConfig(photons_per_measurement=ppm, reference_seed=91, noise_seed=seed) for seed in range(12)]
        normal = [measure_sm(ScatteringMatrix(rows), cfg).matrix.matrix for cfg in cfgs]
        monkeypatch.setattr(calibration, "_GAUSSIAN_FLOOR", np.inf)
        poisson = starved_statistics(rows, truth, sigma, (measure_sm(ScatteringMatrix(rows), cfg).matrix.matrix
                                                          for cfg in cfgs))
        monkeypatch.undo()
        assert abs(poisson[2] - 1.0) <= 3 * poisson[3], (ppm, poisson)
        for widen, holds in ((1.0, True), (1.1, False)):
            fidelity, fidelity_se, variance, variance_se = starved_statistics(
                rows, truth, sigma, (truth + widen * (est - truth) for est in normal))
            same_fidelity = abs(fidelity - poisson[0]) <= 3 * np.hypot(fidelity_se, poisson[1])
            unit_variance = abs(variance - 1.0) <= 3 * variance_se
            assert same_fidelity == unit_variance == holds, (ppm, widen, fidelity, poisson[:2], variance, variance_se)


def test_oversized_photon_budget_rejected_before_sampling(monkeypatch):
    real_generator = rng.generator

    def generator(seed, *path):
        assert path[0] != rng.CALIBRATION_NOISE, "a noise stream was opened"
        return real_generator(seed, *path)

    monkeypatch.setattr(rng, "generator", generator)
    sm = generate_medium(MediumConfig(n_in=8, m_out=8, seed=38))
    with pytest.raises(ConfigError, match="Poisson"):
        measure_sm(sm, CalibrationConfig(photons_per_measurement=1e30, reference_seed=39))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("steps", [4, 3])
def test_a_budget_whose_shot_noise_variance_overflows_is_refused_by_each_block(steps):
    # entries ~1e152 at 1e-300 photons per unit intensity: the block's Poisson means are within the sampler, but the
    # estimate's noise variance is not; for K = 4 the normals' power / (8 ppm) warned "overflow encountered in divide"
    cfg = CalibrationConfig(phase_steps=steps, photons_per_measurement=1e-300)
    rows = generate_medium(MediumConfig(n_in=8, m_out=4, seed=1)).matrix * 1e152
    with pytest.raises(ConfigError, match="noise variance beyond float64 range"):
        calibration.estimate_block(rows, cfg, 0, np.empty_like(rows))


@pytest.mark.filterwarnings("error")
def test_rows_below_the_floor_take_zero_noise_from_the_whole_block_add():
    # at 1e-100 photons per unit intensity and entries ~1e55, row 0 is above the floor and row 1, whose first entry
    # is 0 and whose reference (~1e49) nearly cancels, below it; the noise is added over the whole block, so row 1 must
    # add exact zeros: its products of r and S (~1e104) left in the work plane, times the noise scale (~1e105) twice,
    # would overflow
    cfg = CalibrationConfig(photons_per_measurement=1e-100, reference_seed=41, noise_seed=42)
    f0, f1, f2 = reference_field(3, cfg)
    a = 1e55 * np.exp(0.3j)
    sm = ScatteringMatrix(np.array([[a, a, a], [0.0, a, -a * f1 / f2 * (1 + 1e-6)]]))
    assert above_floor(sm, cfg).tolist() == [True, False]
    assert np.all(np.isfinite(measure_sm(sm, cfg).matrix.matrix))


def test_dark_fringe_rounding_never_reaches_the_sampler():
    # column 0 interferes to exactly zero at theta = 0, where rounding can leave a tiny negative mean; every row is
    # below the floor, so its counts reach the Poisson sampler
    cfg = CalibrationConfig(photons_per_measurement=30.0, reference_seed=41, noise_seed=42)
    field = reference_field(2, cfg)
    for k in range(40):
        a = np.exp(0.37j * k) * (0.5 + 0.01 * k)
        sm = ScatteringMatrix(np.array([[a, -a * (1 + field[0]) / field[1]]]))
        assert not above_floor(sm, cfg).any()
        assert np.all(np.isfinite(measure_sm(sm, cfg).matrix.matrix))
