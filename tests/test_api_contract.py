"""One typed-error contract for every exported callable.

``ROWS`` holds (export, bad call) rows: each call passes one bad argument
and must raise one of the package's six error types, with no warning. An
export whose arguments are all objects that were checked when they were
built (a config, a state, a matrix) has no argument to get wrong; it is
listed in ``CHECKED_ARGUMENTS_ONLY`` with that reason instead. Every
callable and dataclass in ``specklewalk.__all__`` must be in one of the
two, so a new export fails here until it joins the table.

``INTEGER_ARGUMENTS`` names each integer, index and count argument. A
hypothesis property feeds them ints, floats, NaN, +-inf, bools and numpy
scalars: a value the rule accepts must pass, and any other must raise a
typed error.
"""

import math
import numbers
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import specklewalk
from specklewalk import (
    CalibrationConfig,
    ConfigError,
    CountRecord,
    DegenerateFieldError,
    DegenerateTargetError,
    DimensionError,
    ExperimentConfig,
    FormatError,
    FringeScan,
    MediumConfig,
    NoiseConfig,
    ScatteringMatrix,
    SmEstimate,
    SourceConfig,
    StatisticsError,
    TwoModeState,
    apply_mask,
    canonicalize_phases,
    coherence_from_visibility,
    concurrence,
    concurrence_error,
    concurrence_threshold,
    conjugate_fields,
    conjugate_phases,
    dual_target_weights,
    enhancement,
    estimate_state,
    fit_visibility,
    generate_medium,
    load_config,
    load_mask_csv,
    load_smx,
    measure_sm,
    mode_probabilities,
    parse_config_text,
    poisson_upper_limit,
    positivity_confidence,
    propagate,
    random_mask,
    run,
    run_focus,
    run_fringes,
    run_full,
    run_scan,
    run_tomo,
    save_mask_csv,
    scan_fringes,
    simulate_counts,
    sm_fidelity,
    speckle_contrast,
    target_rows,
)

TYPED = (ConfigError, DimensionError, DegenerateTargetError, DegenerateFieldError, StatisticsError, FormatError)

N_IN, M_OUT = 8, 6
SM = generate_medium(MediumConfig(n_in=N_IN, m_out=M_OUT, seed=5))
FIELD = propagate(SM, apply_mask(np.zeros(N_IN)))
NOISY = CalibrationConfig(photons_per_measurement=100.0)
STATE = TwoModeState(p00=0.5, p01=0.25, p10=0.25, p11=0.0, d_mag=0.1)
COUNTS = CountRecord(n_T=100, n_A=10, n_B=10, n_AT=10, n_BT=10, n_ABT=1)
SCAN_PHI = np.linspace(0.0, 2.0 * np.pi, 9)
HUGE_ROW = ScatteringMatrix(SM.matrix[:2] * [[1.0], [1e160]])  # row 1's squared norm overflows float64
HUGE = ScatteringMatrix(SM.matrix * 1e160)  # every entry's square overflows float64
BIG = ScatteringMatrix(SM.matrix * 1e154)  # every entry's square is finite, a noisy block's bound on its means is not
# an output field entry that is not finite, or whose square overflows float64, at a mode that is no target
BAD_FIELDS = {f"{entry!r} entry": np.where(np.arange(M_OUT) == 2, entry, FIELD) for entry in (math.nan, math.inf, 1e200)}
INI = "[medium]\nn_in = 16\nm_out = 64\n\n[targets]\nindex_a = 3\nindex_b = 40\n"
# the mask builder and the field builder take the same (sm, targets, weights) and make the same checks
CONJUGATE_BUILDERS = (conjugate_phases, conjugate_fields)
BAD_CONJUGATIONS = {
    "no targets": (SM, (), np.ones((1, 0))),
    "target=1.5": (SM, (1.5,), [[1.0]]),
    "target=True": (SM, (True,), [[1.0]]),
    "target out of range": (SM, (M_OUT,), [[1.0]]),
    "repeated targets": (SM, (1, 1), [[1.0, 1.0]]),
    "weights shape": (SM, (1, 2), [[1.0]]),
    "nan weight": (SM, (1,), [[math.nan]]),
    "string weight": (SM, (1,), [["a"]]),
    "zero weights": (SM, (1,), [[0.0]]),
    "row norm overflows": (HUGE_ROW, (1,), [[1.0]]),
}
RUNNERS = {"run": run, "run_focus": run_focus, "run_scan": run_scan, "run_fringes": run_fringes,
           "run_tomo": run_tomo, "run_full": run_full}


def _file(tmp_path, name, content):
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    return path


def _experiment(**fields):
    return ExperimentConfig(medium=MediumConfig(n_in=16, m_out=64), target_a=3, target_b=40, **fields)


# (export, id, bad call); each call takes the test's tmp_path
ROWS = [
    ("MediumConfig", "n_in=0", lambda tmp: MediumConfig(n_in=0, m_out=4)),
    ("MediumConfig", "n_in=1.5", lambda tmp: MediumConfig(n_in=1.5, m_out=4)),
    ("MediumConfig", "m_out=True", lambda tmp: MediumConfig(n_in=4, m_out=True)),
    ("MediumConfig", "seed=-1", lambda tmp: MediumConfig(n_in=4, m_out=4, seed=-1)),
    ("MediumConfig", "seed=nan", lambda tmp: MediumConfig(n_in=4, m_out=4, seed=math.nan)),
    ("MediumConfig", "transmission=0", lambda tmp: MediumConfig(n_in=4, m_out=4, transmission=0.0)),
    ("MediumConfig", "transmission=nan", lambda tmp: MediumConfig(n_in=4, m_out=4, transmission=math.nan)),
    ("ScatteringMatrix", "empty", lambda tmp: ScatteringMatrix(np.zeros((0, 3)))),
    ("ScatteringMatrix", "nan entry", lambda tmp: ScatteringMatrix(np.array([[1.0, math.nan]]))),
    ("ScatteringMatrix", "string entry", lambda tmp: ScatteringMatrix(np.array([["a"]]))),
    ("load_smx", "bad magic", lambda tmp: load_smx(_file(tmp, "m.smx", b"SMX2" + bytes(16)))),
    ("load_smx", "truncated", lambda tmp: load_smx(_file(tmp, "m.smx", b"SMX1"))),
    ("propagate", "wrong length", lambda tmp: propagate(SM, np.ones(N_IN + 1))),
    ("propagate", "nan field", lambda tmp: propagate(SM, np.full(N_IN, math.nan))),
    ("propagate", "string entry", lambda tmp: propagate(SM, ["a"] * N_IN)),
    ("propagate", "object entries", lambda tmp: propagate(SM, [{}, 1, 2])),
    ("speckle_contrast", "empty", lambda tmp: speckle_contrast([])),
    ("speckle_contrast", "negative", lambda tmp: speckle_contrast([1.0, -1.0])),
    ("speckle_contrast", "nan", lambda tmp: speckle_contrast([1.0, math.nan])),
    ("speckle_contrast", "zero mean", lambda tmp: speckle_contrast([0.0, 0.0])),
    ("speckle_contrast", "overflow", lambda tmp: speckle_contrast([1e308, 1.0])),
    ("speckle_contrast", "complex", lambda tmp: speckle_contrast(np.array([1.0, 1j]))),
    ("speckle_contrast", "string entry", lambda tmp: speckle_contrast([1.0, "a"])),
    ("apply_mask", "empty", lambda tmp: apply_mask([])),
    ("apply_mask", "2-D", lambda tmp: apply_mask([[0.0]])),
    ("apply_mask", "nan", lambda tmp: apply_mask([0.0, math.nan])),
    ("apply_mask", "complex", lambda tmp: apply_mask(np.array([0.0, 1j]))),
    ("apply_mask", "string entry", lambda tmp: apply_mask([0.0, "a"])),
    ("canonicalize_phases", "inf", lambda tmp: canonicalize_phases([0.0, math.inf])),
    ("canonicalize_phases", "complex", lambda tmp: canonicalize_phases(np.array([0.0, 1j]))),
    ("canonicalize_phases", "string entry", lambda tmp: canonicalize_phases([0.0, "a"])),
    *((build.__name__, case, lambda tmp, build=build, args=args: build(*args))
      for build in CONJUGATE_BUILDERS for case, args in BAD_CONJUGATIONS.items()),
    ("dual_target_weights", "target_b=1.5", lambda tmp: dual_target_weights(SM, 0, 1.5, [0.0])),
    ("dual_target_weights", "target_b out of range", lambda tmp: dual_target_weights(SM, 0, -1, [0.0])),
    ("dual_target_weights", "nan phase", lambda tmp: dual_target_weights(SM, 0, 1, [math.nan])),
    ("dual_target_weights", "complex phase", lambda tmp: dual_target_weights(SM, 0, 1, np.array([1j]))),
    ("dual_target_weights", "string phase", lambda tmp: dual_target_weights(SM, 0, 1, ["a"])),
    ("dual_target_weights", "row norm overflows", lambda tmp: dual_target_weights(HUGE_ROW, 0, 1, [0.0])),
    ("enhancement", "target=1.5", lambda tmp: enhancement(FIELD, 1.5)),
    ("enhancement", "target out of range", lambda tmp: enhancement(FIELD, M_OUT)),
    ("enhancement", "2-D field", lambda tmp: enhancement(FIELD[None, :], 0)),
    ("enhancement", "one mode", lambda tmp: enhancement(FIELD[:1], 0)),
    ("enhancement", "string entry", lambda tmp: enhancement(np.array(["a"] * M_OUT), 0)),
    *(("enhancement", case, lambda tmp, field=field: enhancement(field, 0)) for case, field in BAD_FIELDS.items()),
    ("load_mask_csv", "not a number", lambda tmp: load_mask_csv(_file(tmp, "mask.csv", "abc\n"))),
    ("load_mask_csv", "empty", lambda tmp: load_mask_csv(_file(tmp, "mask.csv", "\n"))),
    ("load_mask_csv", "not canonical", lambda tmp: load_mask_csv(_file(tmp, "mask.csv", "7.0\n"))),
    ("load_mask_csv", "not UTF-8", lambda tmp: load_mask_csv(_file(tmp, "mask.csv", b"0.5\n\xff\n"))),
    ("random_mask", "n=0", lambda tmp: random_mask(0, 1)),
    ("random_mask", "n=1.5", lambda tmp: random_mask(1.5, 1)),
    ("random_mask", "seed=-1", lambda tmp: random_mask(4, -1)),
    ("random_mask", "seed=1.5", lambda tmp: random_mask(4, 1.5)),
    ("random_mask", "seed=nan", lambda tmp: random_mask(4, math.nan)),
    ("random_mask", "seed=True", lambda tmp: random_mask(4, True)),
    ("save_mask_csv", "nan phase", lambda tmp: save_mask_csv(tmp / "mask.csv", [0.0, math.nan])),
    ("save_mask_csv", "2-D", lambda tmp: save_mask_csv(tmp / "mask.csv", [[0.5]])),
    ("save_mask_csv", "0-d", lambda tmp: save_mask_csv(tmp / "mask.csv", 0.5)),
    ("save_mask_csv", "empty", lambda tmp: save_mask_csv(tmp / "mask.csv", [])),
    ("CalibrationConfig", "phase_steps=2", lambda tmp: CalibrationConfig(phase_steps=2)),
    ("CalibrationConfig", "phase_steps=4.5", lambda tmp: CalibrationConfig(phase_steps=4.5)),
    ("CalibrationConfig", "photons=0", lambda tmp: CalibrationConfig(photons_per_measurement=0.0)),
    ("CalibrationConfig", "photons=nan", lambda tmp: CalibrationConfig(photons_per_measurement=math.nan)),
    ("CalibrationConfig", "reference_seed=-1", lambda tmp: CalibrationConfig(reference_seed=-1)),
    ("CalibrationConfig", "noise_seed=1.5", lambda tmp: CalibrationConfig(noise_seed=1.5)),
    ("measure_sm", "first_block=-1", lambda tmp: measure_sm(SM, NOISY, first_block=-1)),
    ("measure_sm", "first_block=1.5", lambda tmp: measure_sm(SM, NOISY, first_block=1.5)),
    ("measure_sm", "photons beyond the sampler",
     lambda tmp: measure_sm(SM, CalibrationConfig(photons_per_measurement=1e30))),
    ("measure_sm", "power beyond float64 noiseless", lambda tmp: measure_sm(HUGE, CalibrationConfig())),
    ("measure_sm", "power beyond float64 noisy", lambda tmp: measure_sm(HUGE, NOISY)),
    ("measure_sm", "bound beyond float64 noisy", lambda tmp: measure_sm(BIG, NOISY)),
    ("sm_fidelity", "shape mismatch",
     lambda tmp: sm_fidelity(SM, measure_sm(ScatteringMatrix(SM.matrix[:2]), CalibrationConfig()))),
    ("sm_fidelity", "true power beyond float64", lambda tmp: sm_fidelity(HUGE, measure_sm(SM, CalibrationConfig()))),
    ("sm_fidelity", "estimate power beyond float64", lambda tmp: sm_fidelity(SM, SmEstimate(HUGE))),
    ("CountRecord", "n_T=-1", lambda tmp: CountRecord(n_T=-1, n_A=0, n_B=0, n_AT=0, n_BT=0, n_ABT=0)),
    ("CountRecord", "n_T=1.5", lambda tmp: CountRecord(n_T=1.5, n_A=0, n_B=0, n_AT=0, n_BT=0, n_ABT=0)),
    ("CountRecord", "twofold above singles", lambda tmp: CountRecord(n_T=10, n_A=1, n_B=0, n_AT=2, n_BT=0, n_ABT=0)),
    ("CountRecord", "triples above twofolds", lambda tmp: CountRecord(n_T=10, n_A=1, n_B=1, n_AT=1, n_BT=1, n_ABT=2)),
    ("SourceConfig", "trigger_rate=-1", lambda tmp: SourceConfig(trigger_rate=-1.0)),
    ("SourceConfig", "dark_rate=nan", lambda tmp: SourceConfig(dark_rate=math.nan)),
    ("SourceConfig", "heralding=1.5", lambda tmp: SourceConfig(heralding_efficiency=1.5)),
    ("SourceConfig", "coincidence_window=0", lambda tmp: SourceConfig(coincidence_window=0.0)),
    ("SourceConfig", "trigger_rate='1'", lambda tmp: SourceConfig(trigger_rate="1")),
    ("TwoModeState", "p00=-0.5", lambda tmp: TwoModeState(p00=-0.5, p01=0.75, p10=0.75, p11=0.0, d_mag=0.0)),
    ("TwoModeState", "sum 0.9", lambda tmp: TwoModeState(p00=0.4, p01=0.25, p10=0.25, p11=0.0, d_mag=0.0)),
    ("TwoModeState", "d_mag=nan", lambda tmp: TwoModeState(p00=0.5, p01=0.25, p10=0.25, p11=0.0, d_mag=math.nan)),
    ("TwoModeState", "d_mag above bound", lambda tmp: TwoModeState(p00=0.5, p01=0.25, p10=0.25, p11=0.0, d_mag=0.3)),
    ("TwoModeState", "p00='a'", lambda tmp: TwoModeState(p00="a", p01=0.25, p10=0.25, p11=0.0, d_mag=0.0)),
    ("estimate_state", "no triggers",
     lambda tmp: estimate_state(CountRecord(n_T=0, n_A=0, n_B=0, n_AT=0, n_BT=0, n_ABT=0), 0.0)),
    ("estimate_state", "d_mag=-1", lambda tmp: estimate_state(COUNTS, -1.0)),
    ("estimate_state", "d_mag=inf", lambda tmp: estimate_state(COUNTS, math.inf)),
    ("mode_probabilities", "target=1.5", lambda tmp: mode_probabilities(FIELD, (0, 1.5), 1.0)),
    ("mode_probabilities", "target out of range", lambda tmp: mode_probabilities(FIELD, (0, M_OUT), 1.0)),
    ("mode_probabilities", "collection=2", lambda tmp: mode_probabilities(FIELD, (0, 1), 2.0)),
    ("mode_probabilities", "dark field", lambda tmp: mode_probabilities(np.zeros(M_OUT), (0, 1), 1.0)),
    ("mode_probabilities", "one target", lambda tmp: mode_probabilities(FIELD, (0,), 1.0)),
    ("mode_probabilities", "string entry", lambda tmp: mode_probabilities(np.array(["a"] * M_OUT), (0, 1), 1.0)),
    *(("mode_probabilities", case, lambda tmp, field=field: mode_probabilities(field, (0, 1), 1.0))
      for case, field in BAD_FIELDS.items()),
    ("simulate_counts", "q_a=nan", lambda tmp: simulate_counts(math.nan, 0.1, SourceConfig(), 1)),
    ("simulate_counts", "q_a + q_b > 1", lambda tmp: simulate_counts(0.6, 0.6, SourceConfig(), 1)),
    ("simulate_counts", "q_a='a'", lambda tmp: simulate_counts("a", 0.1, SourceConfig(), 1)),
    ("simulate_counts", "seed=1.5", lambda tmp: simulate_counts(0.1, 0.1, SourceConfig(), 1.5)),
    ("simulate_counts", "seed=True", lambda tmp: simulate_counts(0.1, 0.1, SourceConfig(), True)),
    ("simulate_counts", "triggers beyond the sampler",
     lambda tmp: simulate_counts(0.1, 0.1, SourceConfig(trigger_rate=1e30), 1)),
    ("FringeScan", "4 points", lambda tmp: FringeScan(phi=SCAN_PHI[:4], counts=np.ones(4, dtype=np.int64))),
    ("FringeScan", "nan phase", lambda tmp: FringeScan(phi=np.append(SCAN_PHI[:8], math.nan), counts=np.ones(9, dtype=int))),
    ("FringeScan", "complex phase", lambda tmp: FringeScan(phi=SCAN_PHI + 0j, counts=np.ones(9, dtype=int))),
    ("FringeScan", "string phase", lambda tmp: FringeScan(phi=np.array(["a"] * 9), counts=np.ones(9, dtype=int))),
    ("FringeScan", "negative count", lambda tmp: FringeScan(phi=SCAN_PHI, counts=-np.ones(9, dtype=np.int64))),
    ("FringeScan", "float counts", lambda tmp: FringeScan(phi=SCAN_PHI, counts=np.ones(9))),
    ("FringeScan", "uint64 counts beyond int64",
     lambda tmp: FringeScan(phi=SCAN_PHI, counts=np.full(9, 2 ** 63, dtype=np.uint64))),
    ("FringeScan", "string counts", lambda tmp: FringeScan(phi=SCAN_PHI, counts=np.array(["1"] * 9))),
    ("FringeScan", "object counts", lambda tmp: FringeScan(phi=SCAN_PHI, counts=np.full(9, None, dtype=object))),
    ("fit_visibility", "zero counts",
     lambda tmp: fit_visibility(FringeScan(phi=SCAN_PHI, counts=np.zeros(9, dtype=np.int64)))),
    ("coherence_from_visibility", "visibility=1.5", lambda tmp: coherence_from_visibility(1.5, 0.1, 0.1)),
    ("coherence_from_visibility", "p01=nan", lambda tmp: coherence_from_visibility(0.5, math.nan, 0.1)),
    ("concurrence", "p00=2", lambda tmp: concurrence(2.0, 0.0, 0.1)),
    ("concurrence", "d_mag=nan", lambda tmp: concurrence(0.5, 0.0, math.nan)),
    ("concurrence", "d_mag=-1", lambda tmp: concurrence(0.5, 0.0, -1.0)),
    ("concurrence_error", "visibility=nan", lambda tmp: concurrence_error(STATE, math.nan, 0.1, 100)),
    ("concurrence_error", "visibility_err=-1", lambda tmp: concurrence_error(STATE, 0.5, -1.0, 100)),
    ("concurrence_error", "n_t=0", lambda tmp: concurrence_error(STATE, 0.5, 0.1, 0)),
    ("concurrence_threshold", "n_t=1.5", lambda tmp: concurrence_threshold(1.5, 0.1, 0.5)),
    ("concurrence_threshold", "n_t=0", lambda tmp: concurrence_threshold(0, 0.1, 0.5)),
    ("concurrence_threshold", "d_mag=nan", lambda tmp: concurrence_threshold(100, math.nan, 0.5)),
    ("concurrence_threshold", "p00=0", lambda tmp: concurrence_threshold(100, 0.1, 0.0)),
    ("poisson_upper_limit", "n_obs=-1", lambda tmp: poisson_upper_limit(-1, 0.9)),
    ("poisson_upper_limit", "n_obs=1.5", lambda tmp: poisson_upper_limit(1.5, 0.9)),
    ("poisson_upper_limit", "n_obs=nan", lambda tmp: poisson_upper_limit(math.nan, 0.9)),
    ("poisson_upper_limit", "confidence=1", lambda tmp: poisson_upper_limit(1, 1.0)),
    ("positivity_confidence", "n_obs=1.5", lambda tmp: positivity_confidence(1.5, 11)),
    ("positivity_confidence", "threshold=-1", lambda tmp: positivity_confidence(1, -1)),
    ("positivity_confidence", "threshold=inf", lambda tmp: positivity_confidence(1, math.inf)),
    ("positivity_confidence", "n_obs=10**400", lambda tmp: positivity_confidence(10 ** 400, 11)),
    ("positivity_confidence", "n_obs=True", lambda tmp: positivity_confidence(True, 11)),
    ("scan_fringes", "n_steps=nan", lambda tmp: scan_fringes(SM, SM, 0, 1, n_steps=math.nan)),
    ("scan_fringes", "n_steps=4", lambda tmp: scan_fringes(SM, SM, 0, 1, n_steps=4)),
    ("scan_fringes", "n_steps=21.0", lambda tmp: scan_fringes(SM, SM, 0, 1, n_steps=21.0)),
    ("scan_fringes", "seed=1.5", lambda tmp: scan_fringes(SM, SM, 0, 1, seed=1.5)),
    ("scan_fringes", "seed=-1 expected", lambda tmp: scan_fringes(SM, SM, 0, 1, seed=-1, sampling="expected")),
    ("scan_fringes", "target_b=2.5", lambda tmp: scan_fringes(SM, SM, 0, 2.5)),
    ("scan_fringes", "target_b out of range", lambda tmp: scan_fringes(SM, SM, 0, M_OUT)),
    ("scan_fringes", "sigma_phi=nan", lambda tmp: scan_fringes(SM, SM, 0, 1, sigma_phi=math.nan)),
    ("scan_fringes", "background=-1", lambda tmp: scan_fringes(SM, SM, 0, 1, background_fraction=-1.0)),
    ("scan_fringes", "counts_per_step=-1", lambda tmp: scan_fringes(SM, SM, 0, 1, counts_per_step=-1.0)),
    ("scan_fringes", "sampling", lambda tmp: scan_fringes(SM, SM, 0, 1, sampling="mean")),
    ("scan_fringes", "shape mismatch", lambda tmp: scan_fringes(SM, ScatteringMatrix(SM.matrix[:, :2]), 0, 1)),
    ("scan_fringes", "row norm overflows", lambda tmp: scan_fringes(HUGE_ROW, HUGE_ROW, 0, 1)),
    ("scan_fringes", "true row power overflows",
     lambda tmp: scan_fringes(HUGE_ROW, ScatteringMatrix(SM.matrix[:2]), 0, 1)),
    ("ExperimentConfig", "scenario", lambda tmp: _experiment(scenario="all")),
    ("ExperimentConfig", "target_a=1.5", lambda tmp: ExperimentConfig(target_a=1.5)),
    ("ExperimentConfig", "target_a=-1", lambda tmp: ExperimentConfig(target_a=-1)),
    ("ExperimentConfig", "target out of range", lambda tmp: ExperimentConfig(target_b=4096)),
    ("ExperimentConfig", "equal targets", lambda tmp: ExperimentConfig(target_a=5, target_b=5)),
    ("ExperimentConfig", "n_steps=4", lambda tmp: _experiment(n_steps=4)),
    ("ExperimentConfig", "seed=-1", lambda tmp: _experiment(seed=-1)),
    ("ExperimentConfig", "counts_per_step=nan", lambda tmp: _experiment(counts_per_step=math.nan)),
    ("ExperimentConfig", "counts_sampling", lambda tmp: _experiment(counts_sampling="mean")),
    ("NoiseConfig", "sigma_phi=-1", lambda tmp: NoiseConfig(sigma_phi=-1.0)),
    ("NoiseConfig", "background=nan", lambda tmp: NoiseConfig(background_fraction=math.nan)),
    ("NoiseConfig", "sigma_phi=None", lambda tmp: NoiseConfig(sigma_phi=None)),
    ("load_config", "unknown key", lambda tmp: load_config(_file(tmp, "c.ini", "[run]\nspeed = 1\n"))),
    ("load_config", "not UTF-8", lambda tmp: load_config(_file(tmp, "c.ini", b"[run]\nseed = 1\n# \xff\n"))),
    ("parse_config_text", "not INI", lambda tmp: parse_config_text("n_in = 4\n")),
    ("parse_config_text", "unknown section", lambda tmp: parse_config_text("[lens]\n")),
    ("parse_config_text", "bad value", lambda tmp: parse_config_text("[medium]\nn_in = many\n")),
    ("parse_config_text", "seed=-1", lambda tmp: parse_config_text("[run]\nseed = -1\n")),
    ("target_rows", "photons beyond the sampler",
     lambda tmp: target_rows(_experiment(calibration=CalibrationConfig(photons_per_measurement=1e30)))),
    *((name, "missing output_dir", lambda tmp, runner=runner: runner(parse_config_text(INI, output_dir=str(tmp / "no"))))
      for name, runner in RUNNERS.items()),
]

CHECKED_ARGUMENTS_ONLY = {
    "generate_medium": "takes a MediumConfig, checked when built",
    "save_smx": "takes a path and a ScatteringMatrix, checked when built",
    "SmEstimate": "a result record that measure_sm builds",
    "VisibilityFit": "a result record that fit_visibility builds",
    "RunReport": "a result record that run builds",
    "config_to_dict": "takes an ExperimentConfig, checked when built",
    "config_to_ini": "takes an ExperimentConfig, checked when built",
}


def _is_exported_callable(name: str) -> bool:
    obj = getattr(specklewalk, name)
    return callable(obj) and not (isinstance(obj, type) and issubclass(obj, Exception))


def test_every_export_has_a_row():
    exports = {name for name in specklewalk.__all__ if _is_exported_callable(name)}
    with_rows = {name for name, _, _ in ROWS}
    assert sorted(exports - with_rows - set(CHECKED_ARGUMENTS_ONLY)) == []
    assert sorted(with_rows & set(CHECKED_ARGUMENTS_ONLY)) == []
    assert sorted((with_rows | set(CHECKED_ARGUMENTS_ONLY)) - exports) == []


@pytest.mark.parametrize("call", [pytest.param(call, id=f"{name}-{case}") for name, case, call in ROWS])
def test_bad_call_raises_a_typed_error_without_a_warning(call, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TYPED):
            call(tmp_path)


def _integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _count(value) -> bool:
    """A whole number: an integer, or a finite float with an integral value."""
    return _integer(value) or (isinstance(value, numbers.Real) and not isinstance(value, bool)
                               and math.isfinite(value) and value == int(value))


# argument: (call with the value, the rule (_integer or _count), smallest valid value, first index past the range or None)
INTEGER_ARGUMENTS = {
    "MediumConfig.n_in": (lambda v: MediumConfig(n_in=v, m_out=4), _integer, 1, None),
    "MediumConfig.seed": (lambda v: MediumConfig(n_in=4, m_out=4, seed=v), _integer, 0, None),
    "CalibrationConfig.phase_steps": (lambda v: CalibrationConfig(phase_steps=v), _integer, 3, None),
    "CalibrationConfig.noise_seed": (lambda v: CalibrationConfig(noise_seed=v), _integer, 0, None),
    "ExperimentConfig.target_b": (lambda v: ExperimentConfig(medium=MediumConfig(n_in=4, m_out=M_OUT), target_b=v,
                                                             target_a=0), _integer, 1, M_OUT),
    "ExperimentConfig.n_steps": (lambda v: _experiment(n_steps=v), _integer, 5, None),
    "ExperimentConfig.seed": (lambda v: _experiment(seed=v), _integer, 0, None),
    "CountRecord.n_T": (lambda v: CountRecord(n_T=v, n_A=0, n_B=0, n_AT=0, n_BT=0, n_ABT=0), _integer, 0, None),
    "random_mask.n": (lambda v: random_mask(v, 0), _integer, 1, None),
    "random_mask.seed": (lambda v: random_mask(4, v), _integer, 0, None),
    "simulate_counts.seed": (lambda v: simulate_counts(0.1, 0.1, SourceConfig(), v), _integer, 0, None),
    "measure_sm.first_block": (lambda v: measure_sm(SM, NOISY, first_block=v), _integer, 0, None),
    "scan_fringes.n_steps": (lambda v: scan_fringes(SM, SM, 0, 1, n_steps=v), _integer, 5, None),
    "scan_fringes.seed": (lambda v: scan_fringes(SM, SM, 0, 1, seed=v), _integer, 0, None),
    "scan_fringes.target_b": (lambda v: scan_fringes(SM, SM, 0, v), _integer, 1, M_OUT),
    **{f"{build.__name__}.target": (lambda v, build=build: build(SM, (v,), [[1.0]]), _integer, 0, M_OUT)
       for build in CONJUGATE_BUILDERS},
    "dual_target_weights.target_b": (lambda v: dual_target_weights(SM, 0, v, [0.0]), _integer, 0, M_OUT),
    "enhancement.target": (lambda v: enhancement(FIELD, v), _integer, 0, M_OUT),
    "mode_probabilities.target_b": (lambda v: mode_probabilities(FIELD, (0, v), 1.0), _integer, 0, M_OUT),
    "poisson_upper_limit.n_obs": (lambda v: poisson_upper_limit(v, 0.9), _count, 0, None),
    "positivity_confidence.n_obs_triples": (lambda v: positivity_confidence(v, 11), _count, 0, None),
    "positivity_confidence.threshold": (lambda v: positivity_confidence(1, v), _count, 0, None),
    "concurrence_threshold.n_t": (lambda v: concurrence_threshold(v, 0.1, 0.5), _count, 1, None),
    "concurrence_error.n_t": (lambda v: concurrence_error(STATE, 0.5, 0.1, v), _count, 1, None),
}

# small magnitudes: a valid value is used, as a mask length, a step count or a Poisson mean
VALUES = st.one_of(
    st.integers(-5, 50),
    st.floats(-50.0, 50.0),
    st.sampled_from([math.nan, math.inf, -math.inf, True, False]),
    st.integers(-5, 50).map(np.int64),
    st.integers(0, 50).map(np.uint8),
    st.integers(-5, 50).map(lambda v: np.float64(v)),
)


@pytest.mark.parametrize("argument", sorted(INTEGER_ARGUMENTS))
@settings(max_examples=25, deadline=None)
@given(value=VALUES)
@example(value=math.nan)
@example(value=math.inf)
@example(value=True)
@example(value=1.5)
@example(value=3.0)
@example(value=np.float64(7.0))
@example(value=np.int32(3))
@example(value=-1)
def test_integer_and_index_arguments(argument, value):
    call, rule, smallest, past = INTEGER_ARGUMENTS[argument]
    valid = rule(value) and smallest <= value and (past is None or value < past)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if valid:
            call(value)
        else:
            with pytest.raises(TYPED):
                call(value)
