import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specklewalk import (
    ConfigError,
    DegenerateTargetError,
    DimensionError,
    FormatError,
    MediumConfig,
    ScatteringMatrix,
    apply_mask,
    canonicalize_phases,
    conjugate_phases,
    dual_target_weights,
    enhancement,
    generate_medium,
    load_mask_csv,
    propagate,
    random_mask,
    save_mask_csv,
)

TWO_PI = 2.0 * np.pi


def test_target_spec_validation():
    sm = generate_medium(MediumConfig(n_in=4, m_out=3, seed=1))
    with pytest.raises(ConfigError, match="at least one target"):
        conjugate_phases(sm, (), np.ones((1, 0)))
    with pytest.raises(ConfigError, match="distinct"):
        conjugate_phases(sm, (1, 1), [[1.0, 1.0]])
    with pytest.raises(ConfigError, match="nonzero"):
        conjugate_phases(sm, (0, 1), [[1.0, 1.0], [0.0, 0.0]])
    for weights in ([[1.0, 2.0]], [1.0], [[[1.0]]]):
        with pytest.raises(ConfigError, match="do not match"):
            conjugate_phases(sm, (0,), weights)
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        with pytest.raises(ConfigError, match="target weights must be finite"):
            conjugate_phases(sm, (0, 2), [[1.0, 1.0], [1.0, bad]])
        with pytest.raises(ConfigError, match="relative phases must be finite"):
            dual_target_weights(sm, 0, 2, [0.0, abs(bad)])


def test_random_mask_range_and_determinism():
    one = random_mask(1, seed=5)
    assert one.shape == (1,) and 0.0 <= one[0] < TWO_PI
    mask = random_mask(10_000, seed=5)
    assert np.all((mask >= 0.0) & (mask < TWO_PI))
    assert abs(np.mean(np.cos(mask))) < 0.03
    assert np.array_equal(mask, random_mask(10_000, seed=5))
    assert not np.array_equal(mask, random_mask(10_000, seed=6))
    with pytest.raises(ConfigError):
        random_mask(0, seed=1)


def test_conjugate_mask_single_target_is_negated_row_phase():
    gen = np.random.default_rng(0)
    row = gen.standard_normal(12) + 1j * gen.standard_normal(12)
    sm = ScatteringMatrix(row[None, :])
    mask, = conjugate_phases(sm, (0,), [[1.0]])
    np.testing.assert_allclose(mask, np.mod(-np.angle(row), TWO_PI), atol=1e-12)


def test_conjugate_mask_hand_case():
    # 1x2 row (1, i): mask (0, 3*pi/2); focused amplitude |1 + i*exp(i*3pi/2)| = 2
    sm = ScatteringMatrix(np.array([[1.0, 1.0j]]))
    mask, = conjugate_phases(sm, (0,), [[1.0]])
    np.testing.assert_allclose(mask, [0.0, 3 * np.pi / 2], atol=1e-12)
    out = propagate(sm, apply_mask(mask))
    assert abs(out[0]) == pytest.approx(2.0, abs=1e-12)


def test_conjugate_mask_phase_alignment_invariant():
    sm = generate_medium(MediumConfig(n_in=64, m_out=16, seed=8))
    mask, = conjugate_phases(sm, (3,), [[1.0]])
    terms = sm.matrix[3, :] * np.exp(1j * mask)
    angles = np.angle(terms)
    assert np.max(np.abs(angles)) < 1e-10
    coherent = abs(np.sum(terms))
    aligned = np.sum(np.abs(terms))
    assert abs(coherent - aligned) / aligned < 1e-9


def test_conjugate_mask_degenerate_row():
    matrix = np.zeros((2, 4), dtype=complex)
    matrix[1, :] = 1.0
    sm = ScatteringMatrix(matrix)
    with pytest.raises(DegenerateTargetError):
        conjugate_phases(sm, (0,), [[1.0]])
    with pytest.raises(DimensionError):
        conjugate_phases(sm, (5,), [[1.0]])


def test_conjugate_phases_one_mask_per_weight_row():
    sm = generate_medium(MediumConfig(n_in=37, m_out=9, seed=12))
    gen = np.random.default_rng(13)
    weights = gen.standard_normal((6, 3)) + 1j * gen.standard_normal((6, 3))
    masks = conjugate_phases(sm, (4, 1, 7), weights)
    assert masks.shape == (6, 37)
    for mask, row in zip(masks, weights):
        assert np.array_equal(mask, conjugate_phases(sm, (4, 1, 7), [row])[0])
    # the masks of a scan are a block, not a mask: the modulator still takes one at a time
    with pytest.raises(ConfigError):
        apply_mask(masks)


def test_conjugate_phases_degenerate_rows_and_cancelled_masks():
    rows = np.array([[1.0, 2.0j, -3.0], [1.0, 2.0j, -3.0]], dtype=complex)
    sm = ScatteringMatrix(rows)
    with pytest.raises(DegenerateTargetError, match="cancels"):
        conjugate_phases(sm, (0, 1), [[1.0, 1.0], [1.0, -1.0], [2.0, 0.5]])  # only the second mask cancels
    assert conjugate_phases(sm, (0, 1), [[1.0, 1.0], [2.0, 0.5]]).shape == (2, 3)
    rows[1] = 0.0
    with pytest.raises(DegenerateTargetError, match=r"target rows \[1\] have no coupling"):
        conjugate_phases(ScatteringMatrix(rows), (0, 1), [[1.0, 1.0]])


def test_a_target_row_whose_squared_norm_overflows_is_named():
    sm = generate_medium(MediumConfig(n_in=16, m_out=3, seed=13))
    rows = ScatteringMatrix(sm.matrix * [[1.0], [1e160], [2.0**500]])  # squares of ~1e319 and ~1e301
    with pytest.raises(ConfigError, match=r"target rows \[1\] have a squared norm beyond float64 range"):
        dual_target_weights(rows, 0, 1, [0.0])
    with pytest.raises(ConfigError, match=r"target rows \[1\] have a squared norm beyond float64 range"):
        conjugate_phases(rows, (2, 1), [[1.0, 1.0]])
    # a row whose squares are finite keeps its weights and masks
    assert np.array_equal(dual_target_weights(rows, 0, 2, [0.0])[0], [1.0 / np.linalg.norm(sm.matrix[0]),
                                                                       1.0 / np.linalg.norm(rows.matrix[2])])
    assert np.array_equal(conjugate_phases(rows, (2,), [[1.0]]), conjugate_phases(sm, (2,), [[1.0]]))


def test_dual_target_relative_phase_monte_carlo():
    # weights (1, e^{i*phi}): target A leads target B by phi on average
    phi = 1.0
    weights = [[1.0, np.exp(1j * phi)]]
    rotations = []
    for seed in range(50):
        sm = generate_medium(MediumConfig(n_in=64, m_out=2, seed=300 + seed))
        out = propagate(sm, apply_mask(conjugate_phases(sm, (0, 1), weights)[0]))
        rotations.append(out[0] * np.conj(out[1]))
    mean_diff = np.angle(np.mean(rotations / np.abs(rotations)))
    assert abs(mean_diff - phi) < 0.2


def test_dual_target_spec_equalizes_amplitudes():
    sm = generate_medium(MediumConfig(n_in=512, m_out=8, seed=12))
    weights = dual_target_weights(sm, 2, 5, [0.0])
    out = propagate(sm, apply_mask(conjugate_phases(sm, (2, 5), weights)[0]))
    balance = abs(out[2]) / abs(out[5])
    assert 0.8 < balance < 1.25


def test_apply_mask_basics():
    np.testing.assert_array_equal(apply_mask(np.zeros(4)), np.ones(4, dtype=complex))
    np.testing.assert_allclose(apply_mask(np.array([np.pi])), [-1.0 + 0.0j], atol=1e-12)
    field = apply_mask(random_mask(100, seed=2))
    np.testing.assert_allclose(np.abs(field), 1.0, atol=1e-15)
    for bad in (np.array([]), np.zeros((2, 2)), np.array([0.0, np.nan])):
        with pytest.raises(ConfigError):
            apply_mask(bad)


def test_enhancement_random_mask_near_one():
    values = []
    for seed in range(100):
        sm = generate_medium(MediumConfig(n_in=64, m_out=128, seed=500 + seed))
        values.append(enhancement(propagate(sm, apply_mask(random_mask(64, seed=900 + seed))), 7))
    assert abs(np.mean(values) - 1.0) < 0.3


def test_enhancement_conjugate_mask_expectation():
    n = 256
    expected = (np.pi / 4) * (n - 1) + 1
    values = []
    for seed in range(20):
        sm = generate_medium(MediumConfig(n_in=n, m_out=512, seed=700 + seed))
        values.append(enhancement(propagate(sm, apply_mask(conjugate_phases(sm, (11,), [[1.0]])[0])), 11))
    assert abs(np.mean(values) - expected) / expected < 0.10


def test_enhancement_single_input_mode_cannot_enhance():
    values = []
    for seed in range(200):
        sm = generate_medium(MediumConfig(n_in=1, m_out=256, seed=1100 + seed))
        values.append(enhancement(propagate(sm, apply_mask(conjugate_phases(sm, (0,), [[1.0]])[0])), 0))
    assert 0.8 < np.mean(values) < 1.2


def test_enhancement_needs_background():
    sm = generate_medium(MediumConfig(n_in=4, m_out=1, seed=1))
    with pytest.raises(DimensionError, match="two output modes"):
        enhancement(propagate(sm, apply_mask(np.zeros(4))), 0)


def test_enhancement_rejects_a_2d_field_and_a_dark_background():
    with pytest.raises(DimensionError, match="1-D"):
        enhancement(np.ones((2, 3), dtype=complex), 0)
    with pytest.raises(DegenerateTargetError, match="background"):
        enhancement(np.array([1.0, 0.0, 0.0], dtype=complex), 0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=20))
def test_canonicalize_idempotent(values):
    phases = np.asarray(values)
    once = canonicalize_phases(phases)
    twice = canonicalize_phases(once)
    assert np.all((once >= 0.0) & (once < TWO_PI))
    np.testing.assert_array_equal(once, twice)


def test_canonicalize_matches_the_mod_reference_bit_for_bit():
    edges = [0.0, TWO_PI, 5e-324, 1e-17, np.nextafter(TWO_PI, 0.0), 3 * TWO_PI, 1e300]
    values = np.concatenate([edges, np.negative(edges),
                             np.random.default_rng(14).uniform(-2 * TWO_PI, 2 * TWO_PI, 400_000)])
    reference = np.mod(values, TWO_PI)
    reference[reference >= TWO_PI] = 0.0
    folded = canonicalize_phases(values)
    assert folded.tobytes() == reference.tobytes()  # tobytes tells -0.0 from 0.0
    assert folded.tobytes() == canonicalize_phases(values.reshape(2, -1)).tobytes()


def test_canonicalize_folds_a_0d_array():
    folded = canonicalize_phases(-0.5)
    assert folded.shape == () and folded == np.mod(-0.5, TWO_PI)


@pytest.mark.parametrize("mask", [[[0.5]], 0.5, []], ids=["2-D", "0-d", "empty"])
def test_save_mask_csv_refuses_a_mask_that_load_mask_csv_would_refuse_before_opening_the_file(tmp_path, mask):
    path = tmp_path / "mask.csv"
    with pytest.raises(ConfigError, match="nonempty 1-D"):
        save_mask_csv(path, mask)
    assert not path.exists()


def test_mask_csv_round_trip(tmp_path):
    mask = random_mask(257, seed=31)
    path = tmp_path / "mask.csv"
    save_mask_csv(path, mask)
    loaded = load_mask_csv(path)
    assert np.array_equal(loaded, mask)
    text = path.read_text()
    assert "\r" not in text and text.endswith("\n")


@pytest.mark.parametrize("text", ["nan", "-nan"])
def test_load_mask_csv_rejects_nan_phase(tmp_path, text):
    path = tmp_path / "mask.csv"
    path.write_text(f"0.5\n{text}\n1.5\n", encoding="utf-8")
    with pytest.raises(FormatError, match="canonical"):
        load_mask_csv(path)
