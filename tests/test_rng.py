import numpy as np
import pytest

from specklewalk import (
    CalibrationConfig,
    ConfigError,
    MediumConfig,
    SourceConfig,
    generate_medium,
    measure_sm,
    parse_config_text,
    random_mask,
    rng,
    scan_fringes,
    simulate_counts,
)

SMALL = generate_medium(MediumConfig(n_in=8, m_out=4, seed=1))


def test_generator_deterministic_per_seed_and_path():
    a = rng.generator(7, rng.MEDIUM).standard_normal(8)
    b = rng.generator(7, rng.MEDIUM).standard_normal(8)
    assert np.array_equal(a, b)


def test_streams_are_distinct():
    draws = {
        path: rng.generator(7, path).standard_normal(4).tobytes()
        for path in (rng.MEDIUM, rng.REFERENCE, rng.COUNTS, rng.FRINGES)
    }
    assert len(set(draws.values())) == len(draws)


def test_child_seed_stable_and_path_sensitive():
    assert rng.child_seed(123, 0) == rng.child_seed(123, 0)
    assert rng.child_seed(123, 0) != rng.child_seed(123, 1)
    assert rng.child_seed(123, 0) != rng.child_seed(124, 0)
    assert 0 <= rng.child_seed(123, 5) < 2**64


@pytest.mark.parametrize("call", [
    lambda seed: rng.generator(seed, rng.MEDIUM),
    lambda seed: rng.child_seed(seed, rng.MEDIUM),
    lambda seed: random_mask(5, seed),
    lambda seed: scan_fringes(SMALL, SMALL, 0, 1, seed=seed),
    lambda seed: simulate_counts(0.01, 0.01, SourceConfig(), seed=seed),
    lambda seed: measure_sm(SMALL, CalibrationConfig(photons_per_measurement=100.0, noise_seed=seed)),
    lambda seed: CalibrationConfig(reference_seed=seed),
    lambda seed: parse_config_text(f"[calibration]\nnoise_seed = {seed}\n"),
], ids=["generator", "child_seed", "random_mask", "scan_fringes", "simulate_counts", "measure_sm",
        "reference_seed", "ini_noise_seed"])
def test_negative_seeds_fail_with_config_error(call):
    with pytest.raises(ConfigError, match="nonnegative"):
        call(-1)
