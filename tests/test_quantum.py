import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specklewalk import (
    ConfigError,
    CountRecord,
    DegenerateFieldError,
    MediumConfig,
    ScatteringMatrix,
    SourceConfig,
    StatisticsError,
    apply_mask,
    conjugate_phases,
    estimate_state,
    generate_medium,
    mode_probabilities,
    propagate,
    random_mask,
    simulate_counts,
)

PAPER_SOURCE = SourceConfig()  # defaults are the documented reference operating point


def test_source_config_validation():
    with pytest.raises(ConfigError):
        SourceConfig(trigger_rate=-1.0)
    with pytest.raises(ConfigError):
        SourceConfig(heralding_efficiency=1.5)
    with pytest.raises(ConfigError):
        SourceConfig(coincidence_window=0.0)
    with pytest.raises(ConfigError):
        SourceConfig(acquisition_time=0.0)


@pytest.mark.parametrize("knob", ["trigger_rate", "dark_rate"])
def test_simulate_counts_rejects_means_beyond_the_poisson_sampler(knob):
    with pytest.raises(ConfigError, match=knob):
        simulate_counts(0.01, 0.01, SourceConfig(**{knob: 1e30}), seed=1)


def test_count_record_invariants():
    with pytest.raises(ConfigError):
        CountRecord(n_T=10, n_A=5, n_B=5, n_AT=6, n_BT=2, n_ABT=0)   # n_AT > n_A
    with pytest.raises(ConfigError):
        CountRecord(n_T=10, n_A=5, n_B=5, n_AT=3, n_BT=2, n_ABT=3)   # triples > n_BT
    with pytest.raises(ConfigError):
        CountRecord(n_T=-1, n_A=0, n_B=0, n_AT=0, n_BT=0, n_ABT=0)
    record = CountRecord(n_T=10, n_A=5, n_B=4, n_AT=3, n_BT=2, n_ABT=1)
    assert dataclasses.asdict(record)["n_ABT"] == 1


def test_mode_probabilities_symmetric_split():
    identity = ScatteringMatrix(np.eye(2, dtype=complex))
    q_a, q_b = mode_probabilities(propagate(identity, apply_mask(np.zeros(2))), (0, 1), 1.0)
    assert (q_a, q_b) == (0.5, 0.5)


def test_mode_probabilities_random_mask_uniform_sharing():
    m_out = 4096
    sm = generate_medium(MediumConfig(n_in=256, m_out=m_out, seed=70))
    values = [
        mode_probabilities(propagate(sm, apply_mask(random_mask(256, seed=71 + k))), (9, 100), 0.5)[0]
        for k in range(50)
    ]
    assert abs(np.mean(values) - 0.5 / m_out) < 0.2 * 0.5 / m_out * 5  # exponential stats, loose


def test_mode_probabilities_focused_fraction():
    sm = generate_medium(MediumConfig(n_in=1024, m_out=4096, seed=72))
    mask, = conjugate_phases(sm, (40,), [[1.0]])
    q_a, _ = mode_probabilities(propagate(sm, apply_mask(mask)), (40, 41), 1.0)
    expected = ((np.pi / 4) * 1023 + 1) / ((np.pi / 4) * 1023 + 1 + 4095)  # focused share of total power
    assert abs(q_a - expected) / expected < 0.15


def test_mode_probabilities_degenerate_field():
    sm = ScatteringMatrix(np.zeros((2, 2), dtype=complex) + 0j)
    with pytest.raises((DegenerateFieldError, ConfigError)):
        mode_probabilities(propagate(sm, apply_mask(np.zeros(2))), (0, 1), 1.0)


def test_simulate_counts_zero_efficiencies():
    cfg = SourceConfig(trigger_rate=1e5, heralding_efficiency=0.0, collection_efficiency=0.0,
                       acquisition_time=10.0, double_pair_mean=0.0, dark_rate=0.0)
    record = simulate_counts(0.0, 0.0, cfg, seed=1)
    assert record.n_T > 0
    assert (record.n_A, record.n_B, record.n_AT, record.n_BT, record.n_ABT) == (0, 0, 0, 0, 0)


def test_simulate_counts_rejects_bad_probabilities():
    with pytest.raises(ConfigError):
        simulate_counts(0.6, 0.6, PAPER_SOURCE, seed=1)
    with pytest.raises(ConfigError):
        simulate_counts(-0.1, 0.0, PAPER_SOURCE, seed=1)


def test_simulate_counts_determinism():
    a = simulate_counts(0.03, 0.035, PAPER_SOURCE, seed=9)
    b = simulate_counts(0.03, 0.035, PAPER_SOURCE, seed=9)
    assert a == b
    assert a != simulate_counts(0.03, 0.035, PAPER_SOURCE, seed=10)


def test_simulate_counts_paper_scale_means():
    # trigger mean 1.1e10, twofold means ~4.6e5, triples ~1 per acquisition
    q = 0.426 * 0.0822  # collected fraction per target under a dual mask
    record = simulate_counts(q, q, PAPER_SOURCE, seed=2)
    assert record.n_T == pytest.approx(1.02e6 * 10800, rel=1e-3)
    assert record.n_AT == pytest.approx(record.n_T * 1.2e-3 * q, rel=0.01)
    assert record.n_AT / record.n_T == pytest.approx(4.2e-5, rel=0.08)
    assert record.n_ABT <= 10


def test_simulate_counts_default_double_pair_rate_gives_one_triple():
    # documented operating point: about one triple coincidence per acquisition,
    # so the estimated p11 reproduces 1 / 1.1e10
    q = 0.426 * 0.0822
    triples = [simulate_counts(q, q, PAPER_SOURCE, seed=7000 + k).n_ABT for k in range(60)]
    assert 0.5 < np.mean(triples) < 1.6


def test_simulate_counts_empirical_means_match_model():
    cfg = SourceConfig(trigger_rate=1e4, heralding_efficiency=0.1, collection_efficiency=1.0,
                       acquisition_time=100.0, double_pair_mean=0.5, dark_rate=10.0)
    q_a, q_b = 0.3, 0.2
    genuine_a, genuine_b = 0.1 * q_a, 0.1 * q_b
    accidental = 10.0 * cfg.coincidence_window
    p_a = genuine_a + accidental
    p_b = genuine_b + accidental
    p_ab = 0.5 * 0.1 ** 2 * q_a * q_b + genuine_a * accidental + genuine_b * accidental + accidental ** 2
    n_t_mean = 1e6

    records = [simulate_counts(q_a, q_b, cfg, seed=5000 + k) for k in range(200)]
    for name, mean in (
        ("n_T", n_t_mean),
        ("n_AT", n_t_mean * p_a),
        ("n_BT", n_t_mean * p_b),
        ("n_ABT", n_t_mean * p_ab),
    ):
        values = np.array([getattr(r, name) for r in records], dtype=float)
        stderr = np.sqrt(mean / len(records))
        assert abs(values.mean() - mean) < 3.5 * stderr, name
    for r in records:
        assert r.n_ABT <= min(r.n_AT, r.n_BT)
        assert r.n_AT <= min(r.n_A, r.n_T) and r.n_BT <= min(r.n_B, r.n_T)


def test_estimate_state_simple_ratios():
    record = CountRecord(n_T=10**6, n_A=50, n_B=50, n_AT=50, n_BT=50, n_ABT=0)
    state = estimate_state(record, 0.0)
    assert state.p10 == pytest.approx(5e-5)
    assert state.p01 == pytest.approx(5e-5)
    assert state.p11 == 0.0
    assert state.p00 == pytest.approx(1 - 1e-4)
    assert state.p01_err == pytest.approx(np.sqrt(5e-5 * (1 - 5e-5) / 1e6), rel=1e-9)


def test_estimate_state_paper_counts():
    n_t = int(1.1e10)
    record = CountRecord(n_T=n_t, n_A=473_000, n_B=451_000, n_AT=473_000, n_BT=451_000, n_ABT=1)
    state = estimate_state(record, 3.3e-5)
    assert state.p10 == pytest.approx(4.3e-5, rel=1e-2)
    assert state.p01 == pytest.approx(4.1e-5, rel=1e-2)
    assert state.p11 == pytest.approx(1 / 1.1e10, rel=1e-9)
    assert not state.d_clamped


def test_estimate_state_clamps_excess_coherence():
    record = CountRecord(n_T=10**6, n_A=40, n_B=60, n_AT=40, n_BT=60, n_ABT=0)
    state = estimate_state(record, 1.0)
    assert state.d_clamped
    assert state.d_mag == pytest.approx(np.sqrt(state.p01 * state.p10))


@pytest.mark.parametrize("record, match", [
    (CountRecord(n_T=0, n_A=0, n_B=0, n_AT=0, n_BT=0, n_ABT=0), "without trigger counts"),
    # p00 = 1 - (6 + 5 + 0) / 10 would be negative: an outcome of the counts, not a config fault
    (CountRecord(n_T=10, n_A=6, n_B=5, n_AT=6, n_BT=5, n_ABT=0), "exceed the 10 trigger counts"),
])
def test_estimate_state_needs_triggers(record, match):
    with pytest.raises(StatisticsError, match=match):
        estimate_state(record, 0.0)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=0, max_value=50),
)
def test_estimate_state_probabilities_always_normalized(n_t, n_at, n_bt, n_abt):
    n_abt = min(n_abt, n_at, n_bt)
    n_at, n_bt = min(n_at, n_t), min(n_bt, n_t)
    n_abt = min(n_abt, n_at, n_bt)
    if n_at + n_bt + n_abt > n_t:
        return
    record = CountRecord(n_T=n_t, n_A=n_at, n_B=n_bt, n_AT=n_at, n_BT=n_bt, n_ABT=n_abt)
    state = estimate_state(record, 0.0)
    assert abs(state.p00 + state.p01 + state.p10 + state.p11 - 1.0) <= 1e-12
    for p in (state.p00, state.p01, state.p10, state.p11):
        assert 0.0 <= p <= 1.0
