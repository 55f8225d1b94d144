import dataclasses
import hashlib
import importlib.metadata
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specklewalk import __version__, medium, rng
from specklewalk import (
    CalibrationConfig,
    ConfigError,
    ExperimentConfig,
    FormatError,
    MediumConfig,
    NoiseConfig,
    SourceConfig,
    StatisticsError,
    config_to_dict,
    config_to_ini,
    generate_medium,
    load_config,
    load_smx,
    measure_sm,
    parse_config_text,
    propagate,
    run,
    run_focus,
    run_fringes,
    run_scan,
    run_tomo,
    scan_fringes,
    sm_fidelity,
    target_rows,
)
from specklewalk.calibration import reference_field
from specklewalk.cli import main
from specklewalk.harness import SCENARIOS


def small_config(out_dir, scenario="full", seed=42, **overrides):
    base = dict(
        scenario=scenario,
        medium=MediumConfig(n_in=128, m_out=512, seed=1281),
        calibration=CalibrationConfig(photons_per_measurement=1e4, reference_seed=1282, noise_seed=1283),
        source=SourceConfig(),
        noise=NoiseConfig(),
        target_a=96,
        target_b=288,
        output_dir=str(out_dir),
        seed=seed,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def digest_dir(path):
    return {
        name: hashlib.sha256((path / name).read_bytes()).hexdigest()
        for name in sorted(os.listdir(path))
    }


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config("out", scenario="warp")
    with pytest.raises(ConfigError):
        small_config("out", target_a=512)  # outside m_out
    with pytest.raises(ConfigError):
        small_config("out", target_b=96)  # same as target_a
    with pytest.raises(ConfigError):
        small_config("out", n_steps=3)


FLOAT_KNOBS = [
    ("medium", "transmission"),
    ("calibration", "photons_per_measurement"),
    ("source", "trigger_rate"),
    ("source", "heralding_efficiency"),
    ("source", "collection_efficiency"),
    ("source", "coincidence_window"),
    ("source", "acquisition_time"),
    ("source", "double_pair_mean"),
    ("source", "dark_rate"),
    ("noise", "sigma_phi"),
    ("noise", "background_fraction"),
    ("run", "counts_per_step"),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("section,key", FLOAT_KNOBS)
def test_config_rejects_nonfinite_float_knobs(section, key, value):
    defaults = ExperimentConfig()
    owner = defaults if section == "run" else getattr(defaults, section)
    with pytest.raises(ConfigError, match=key):
        dataclasses.replace(owner, **{key: value})
    with pytest.raises(ConfigError, match=key):
        parse_config_text(f"[{section}]\n{key} = {value}\n")


INTEGER_KNOBS = [
    ("medium", "n_in"),
    ("medium", "m_out"),
    ("medium", "seed"),
    ("calibration", "phase_steps"),
    ("calibration", "reference_seed"),
    ("calibration", "noise_seed"),
    ("experiment", "target_a"),
    ("experiment", "target_b"),
    ("experiment", "n_steps"),
    ("experiment", "seed"),
]


@pytest.mark.parametrize("value", [4.5, 5.0, "5", True])
@pytest.mark.parametrize("owner,name", INTEGER_KNOBS)
def test_configs_reject_non_integer_counts_indices_and_seeds(owner, name, value):
    # phase_steps=4.5 once calibrated with five steps that do not close the circle
    defaults = ExperimentConfig()
    config = defaults if owner == "experiment" else getattr(defaults, owner)
    with pytest.raises(ConfigError, match=f"{name} must be an integer"):
        dataclasses.replace(config, **{name: value})
    assert dataclasses.replace(config, **{name: np.int64(getattr(config, name))}) == config


def test_parse_rejects_unknown_sections_and_keys():
    with pytest.raises(ConfigError, match="unknown config section"):
        parse_config_text("[warp]\nspeed = 9\n")
    # configparser would drop a lone [DEFAULT] key, and copy one into [run] or [medium] as their seed
    for text in ("", "[run]\nscenario = tomo\n", "[medium]\nn_in = 64\n"):
        with pytest.raises(ConfigError, match=r"unknown config section \[DEFAULT\]"):
            parse_config_text("[DEFAULT]\nseed = 3\n" + text)
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("[medium]\nn_inn = 4\n")
    # where a run writes is a run setting, and the note never entered the computation
    with pytest.raises(ConfigError, match="unknown key 'output_dir'"):
        parse_config_text("[run]\noutput_dir = out\n")
    with pytest.raises(ConfigError, match="unknown key 'mean_free_path_note'"):
        parse_config_text("[medium]\nmean_free_path_note = l* ~ 1-2 um\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_text("[medium]\nn_in = four\n")


def test_load_config_reads_past_a_byte_order_mark(tmp_path):
    small = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "small.ini")
    path = tmp_path / "bom.ini"
    with open(small, "rb") as fh:
        path.write_bytes("\ufeff".encode("utf-8") + fh.read())
    assert load_config(path) == load_config(small)


def test_parse_round_trip_through_ini():
    cfg = small_config("somewhere", seed=7)
    text = config_to_ini(cfg)
    assert parse_config_text(text, output_dir=cfg.output_dir) == cfg


def test_parse_round_trip_with_noiseless_calibration():
    cfg = small_config("somewhere", calibration=CalibrationConfig(photons_per_measurement=None,
                                                                  reference_seed=3, noise_seed=4))
    assert parse_config_text(config_to_ini(cfg), output_dir=cfg.output_dir) == cfg


seeds = st.integers(min_value=0, max_value=2**64 - 1)
unit = st.floats(min_value=0.0, max_value=1.0)
nonnegative = st.floats(min_value=0.0, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def experiment_configs(draw):
    m_out = draw(st.integers(min_value=2, max_value=10**6))
    target_a, target_b = draw(st.lists(st.integers(0, m_out - 1), min_size=2, max_size=2, unique=True))
    return ExperimentConfig(
        scenario=draw(st.sampled_from(SCENARIOS)),
        medium=MediumConfig(n_in=draw(st.integers(min_value=1, max_value=10**6)), m_out=m_out,
                            transmission=draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True)),
                            seed=draw(seeds)),
        calibration=CalibrationConfig(phase_steps=draw(st.integers(min_value=3, max_value=64)),
                                      photons_per_measurement=draw(st.none() | positive),
                                      reference_seed=draw(seeds), noise_seed=draw(seeds)),
        source=SourceConfig(trigger_rate=draw(nonnegative), heralding_efficiency=draw(unit),
                            collection_efficiency=draw(unit), coincidence_window=draw(positive),
                            acquisition_time=draw(positive), double_pair_mean=draw(nonnegative),
                            dark_rate=draw(nonnegative)),
        noise=NoiseConfig(sigma_phi=draw(nonnegative), background_fraction=draw(nonnegative)),
        target_a=target_a,
        target_b=target_b,
        n_steps=draw(st.integers(min_value=5, max_value=10**6)),
        counts_per_step=draw(nonnegative),
        counts_sampling=draw(st.sampled_from(("poisson", "expected"))),
        output_dir=draw(st.text()),
        seed=draw(seeds),
    )


@settings(max_examples=200, deadline=None)
@given(experiment_configs())
def test_every_valid_config_survives_ini_round_trip(cfg):
    assert parse_config_text(config_to_ini(cfg), output_dir=cfg.output_dir) == cfg


def test_ini_text_values_are_read_verbatim():
    # no value is JSON-decoded: a quoted scenario is the name with its quotes, which is no scenario
    with pytest.raises(ConfigError, match="""unknown scenario '"tomo"'"""):
        parse_config_text('[run]\nscenario = "tomo"\n')


def test_parse_derives_subseeds_from_master():
    cfg_a = parse_config_text("[run]\nseed = 10\n")
    cfg_b = parse_config_text("[run]\nseed = 10\n")
    cfg_c = parse_config_text("[run]\nseed = 11\n")
    assert cfg_a == cfg_b
    assert cfg_a.medium.seed != cfg_c.medium.seed
    assert cfg_a.calibration.reference_seed != cfg_a.medium.seed


def test_parse_overrides_take_precedence():
    text = "[run]\nscenario = focus\nseed = 1\n"
    cfg = parse_config_text(text, scenario="tomo", seed=2, output_dir="b")
    assert cfg.scenario == "tomo" and cfg.seed == 2 and cfg.output_dir == "b"


def test_sub_configs_are_checked_in_table_order_whatever_the_file_order():
    # the file names [calibration] first, but the medium is built, and so checked, first
    with pytest.raises(ConfigError, match="^n_in must be"):
        parse_config_text("[calibration]\nphase_steps = 2\n[medium]\nn_in = 0\n")
    # the source before the noise, and both before ExperimentConfig
    with pytest.raises(ConfigError, match="^dark_rate must be"):
        parse_config_text("[noise]\nsigma_phi = -1\n[source]\ndark_rate = -1\n[run]\nn_steps = 3\n")


def test_an_override_seed_derives_the_sub_seeds_the_file_leaves_out():
    cfg = parse_config_text("[run]\nseed = 1\n[medium]\nseed = 5\n", seed=2)
    assert cfg.seed == 2 and cfg.medium.seed == 5
    assert cfg.calibration.reference_seed == rng.child_seed(2, rng.REFERENCE)
    assert cfg.calibration.noise_seed == rng.child_seed(2, rng.CALIBRATION_NOISE)


def test_missing_output_dir_fails_before_computation(tmp_path):
    cfg = small_config(tmp_path / "nope", scenario="focus")
    with pytest.raises(ConfigError, match="output_dir"):
        run_focus(cfg)


def test_run_focus_rejects_counts_beyond_the_poisson_sampler(tmp_path):
    cfg = small_config(tmp_path, scenario="focus", source=SourceConfig(trigger_rate=1e30))
    with pytest.raises(ConfigError, match="trigger_rate"):
        run_focus(cfg)


def test_run_focus_outputs(tmp_path):
    report = run_focus(small_config(tmp_path, scenario="focus"))
    result = report.result
    assert 0.0 < result["random_fraction"] < result["focused_fraction"] < 1.0
    assert result["enhancement"] > 50
    assert result["mean_row_fidelity"] > 0.99
    for name in ("medium.smx", "sm_estimate.smx", "sm_fidelity.csv", "mask_focused.csv",
                 "mask_random.csv", "scan_focused.csv", "scan_random.csv", "report.json"):
        assert (tmp_path / name).exists(), name
    lines = (tmp_path / "scan_focused.csv").read_text().splitlines()
    assert lines[0] == "mode_index,counts"
    assert len(lines) == 22  # header + n_steps window rows
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["scenario"] == "focus"
    assert "wall_time" not in doc
    assert doc["config"]["run"]["seed"] == 42


def test_run_focus_scans_count_dark_count_accidentals(tmp_path):
    # no heralded photon is detected, so every scan count is a dark count in the coincidence window
    source = SourceConfig(heralding_efficiency=0.0, dark_rate=1000.0)
    cfg = small_config(tmp_path, scenario="focus", source=source)
    run_focus(cfg)
    mean = source.trigger_rate * source.acquisition_time * source.dark_rate * source.coincidence_window  # 2.75e4
    for name in ("scan_focused.csv", "scan_random.csv"):
        counts = [int(line.split(",")[1]) for line in (tmp_path / name).read_text().splitlines()[1:]]
        assert len(counts) == cfg.n_steps
        assert all(abs(count - mean) < 6.0 * math.sqrt(mean) for count in counts), (name, counts)


def test_run_focus_single_input_mode_masks_equivalent(tmp_path):
    cfg = small_config(tmp_path, scenario="focus",
                       medium=MediumConfig(n_in=1, m_out=512, seed=3),
                       calibration=CalibrationConfig(photons_per_measurement=None, reference_seed=4))
    result = run_focus(cfg).result
    # one controlled mode: a conjugate mask is just a global phase
    assert result["focused_fraction"] == pytest.approx(result["random_fraction"], rel=1e-12)
    assert result["enhancement"] > 0.0  # single realization is exponentially distributed


def test_run_scan_emits_fringe_table(tmp_path):
    report = run_scan(small_config(tmp_path, scenario="scan"))
    assert report.result["total_counts"] > 0
    lines = (tmp_path / "fringes.csv").read_text().splitlines()
    assert lines[0] == "phi,counts,duration"
    assert len(lines) == 22


def test_a_scan_run_never_fits(tmp_path):
    # at zero counts a fit raises, so only a run that makes no fit can succeed
    cfg = small_config(tmp_path, counts_per_step=0.0)
    report = run_scan(cfg)
    assert report.result == {"n_steps": 21, "total_counts": 0}
    assert len((tmp_path / "fringes.csv").read_text().splitlines()) == 22
    with pytest.raises(StatisticsError, match="all-zero counts"):
        run_fringes(cfg)


def test_run_fringes_noiseless_limit(tmp_path):
    cfg = small_config(
        tmp_path, scenario="fringes",
        medium=MediumConfig(n_in=1024, m_out=512, seed=10),
        calibration=CalibrationConfig(photons_per_measurement=None, reference_seed=11),
        noise=NoiseConfig(sigma_phi=0.0, background_fraction=0.0),
        counts_sampling="expected",
        counts_per_step=1e8,
    )
    report = run_fringes(cfg)
    assert report.result["visibility"] >= 0.99
    assert report.result["visibility_err"] < 1e-3


def test_run_fringes_default_noise_band(tmp_path):
    cfg = small_config(tmp_path, scenario="fringes",
                       medium=MediumConfig(n_in=256, m_out=1024, seed=88),
                       target_a=96, target_b=700)
    report = run_fringes(cfg)
    assert 0.70 <= report.result["visibility"] <= 0.85


def test_run_tomo_payload_and_files(tmp_path):
    cfg = small_config(tmp_path, scenario="tomo",
                       medium=MediumConfig(n_in=256, m_out=1024, seed=91),
                       target_a=96, target_b=700)
    result = run_tomo(cfg).result
    probs = result["probabilities"]
    assert abs(sum(probs[k] for k in ("p00", "p01", "p10", "p11")) - 1.0) < 1e-12
    assert result["concurrence"] > 0.0
    assert result["confidence"] > 0.99 and result["exceeds_99"]
    assert result["triple_threshold"] >= 0
    assert result["d_mag"] <= np.sqrt(probs["p01"] * probs["p10"]) + 1e-12
    # the reported diagonal of the density matrix is the occupation probabilities, bit for bit
    assert result["density_matrix_diag"] == [probs["p00"], probs["p01"], probs["p10"], probs["p11"]]

    counts_doc = json.loads((tmp_path / "counts.json").read_text())
    for key in ("n_T", "n_A", "n_B", "n_AT", "n_BT", "n_ABT"):
        assert isinstance(counts_doc[key], int)
    assert counts_doc["config"]["trigger_rate"] == cfg.source.trigger_rate

    prob_lines = (tmp_path / "probabilities.csv").read_text().splitlines()
    assert prob_lines[0] == "quantity,value,std_error"
    assert len(prob_lines) == 5


def test_run_tables_hold_the_library_values(tmp_path):
    cfg = small_config(tmp_path)
    result = run(cfg).result

    def table(name):
        header, *rows = (tmp_path / name).read_text(encoding="utf-8").splitlines()
        return header, [row.split(",") for row in rows]

    sm = generate_medium(cfg.medium)
    estimate = measure_sm(sm, cfg.calibration)
    header, rows = table("sm_fidelity.csv")
    assert header == "row,fidelity"
    assert [(int(i), float(v)) for i, v in rows] == list(enumerate(sm_fidelity(sm, estimate).tolist()))

    lo, hi = result["focus"]["scan_window"]
    assert hi - lo == cfg.n_steps
    for name in ("scan_focused.csv", "scan_random.csv"):
        header, rows = table(name)
        assert header == "mode_index,counts"
        assert [int(i) for i, _ in rows] == list(range(lo, hi))
        assert all(int(c) >= 0 for _, c in rows)
    focused = {int(i): int(c) for i, c in table("scan_focused.csv")[1]}
    assert max(focused, key=focused.get) == cfg.target_a  # the conjugate mask focuses on the target

    scan = scan_fringes(sm, estimate.matrix, cfg.target_a, cfg.target_b, n_steps=cfg.n_steps,
                        counts_per_step=cfg.counts_per_step, seed=cfg.seed, sigma_phi=cfg.noise.sigma_phi,
                        background_fraction=cfg.noise.background_fraction, sampling=cfg.counts_sampling)
    header, rows = table("fringes.csv")
    assert header == "phi,counts,duration"
    assert [(float(p), int(c)) for p, c, _ in rows] == list(zip(scan.phi.tolist(), scan.counts.tolist()))
    assert [d for _, _, d in rows] == ["1.0"] * cfg.n_steps  # every step lasts unit time

    probabilities = result["tomo"]["probabilities"]
    header, rows = table("probabilities.csv")
    assert header == "quantity,value,std_error"
    assert [(q, float(v), float(e)) for q, v, e in rows] == \
        [(p, probabilities[p], probabilities[f"{p}_err"]) for p in ("p00", "p01", "p10", "p11")]

    counts_doc = json.loads((tmp_path / "counts.json").read_text(encoding="utf-8"))
    assert counts_doc.pop("config") == config_to_dict(cfg)["source"]
    assert counts_doc == result["tomo"]["counts"]


def test_run_tomo_zero_rates_surface_cleanly(tmp_path):
    cfg = small_config(tmp_path, scenario="tomo",
                       source=SourceConfig(trigger_rate=0.0))
    with pytest.raises(Exception) as err:
        run_tomo(cfg)
    assert "trigger" in str(err.value).lower()


def test_run_tomo_coincidences_beyond_the_triggers_raise_a_statistics_error(tmp_path):
    # two output modes at unit efficiency: at seed 2 the twofold counts outnumber the 88 triggers
    cfg = ExperimentConfig(scenario="tomo", medium=MediumConfig(n_in=8, m_out=2, seed=2),
                           source=SourceConfig(heralding_efficiency=1.0, collection_efficiency=1.0,
                                               trigger_rate=10.0, acquisition_time=10.0),
                           target_a=0, target_b=1, output_dir=str(tmp_path), seed=2)
    with pytest.raises(StatisticsError, match="exceed the 88 trigger counts"):
        run(cfg)


def test_replay_is_byte_identical(tmp_path):
    cfg = small_config(tmp_path, scenario="full")
    run(cfg)
    first = digest_dir(tmp_path)
    run(cfg)
    assert digest_dir(tmp_path) == first


def test_one_config_run_into_two_directories_gives_identical_files(tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        out.mkdir()
        run(small_config(out))
    assert len(digest_dir(outs[0])) == 11
    assert digest_dir(outs[0]) == digest_dir(outs[1])


def test_different_seed_changes_outputs(tmp_path):
    run(small_config(tmp_path, scenario="scan", seed=1))
    first = digest_dir(tmp_path)
    run(small_config(tmp_path, scenario="scan", seed=2))
    assert digest_dir(tmp_path) != first


def test_report_round_trip_reproduces_run(tmp_path):
    # run_tomo on a config that says "full" must report, and so replay, "tomo"
    for name, runner, scenario in (("a", run, "tomo"), ("b", run_tomo, "full")):
        out = tmp_path / name
        out.mkdir()
        report = runner(small_config(out, scenario=scenario))
        cfg = small_config(out, scenario="tomo")
        doc = json.loads((out / "report.json").read_text())
        assert report.config.scenario == doc["scenario"] == "tomo" and report.config == cfg
        written = digest_dir(out)

        # rebuild the config from the echoed dict and replay
        echo = doc["config"]
        rebuilt = ExperimentConfig(
            scenario=echo["run"]["scenario"],
            medium=MediumConfig(**echo["medium"]),
            calibration=CalibrationConfig(**echo["calibration"]),
            source=SourceConfig(**echo["source"]),
            noise=NoiseConfig(**echo["noise"]),
            target_a=echo["targets"]["index_a"],
            target_b=echo["targets"]["index_b"],
            n_steps=echo["run"]["n_steps"],
            counts_per_step=echo["run"]["counts_per_step"],
            counts_sampling=echo["run"]["counts_sampling"],
            output_dir=str(out),
            seed=echo["run"]["seed"],
        )
        assert rebuilt == cfg
        replay = run(rebuilt)
        assert replay.result == doc["result"]
        assert digest_dir(out) == written


def test_run_memory_does_not_grow_with_the_medium(tmp_path, monkeypatch):
    # the matrix at m_out = 8192 is 32 MiB; the run holds only the target blocks and one set of block buffers per worker,
    # so the worker count is pinned
    monkeypatch.setattr(medium, "_cpu_count", lambda: 2)
    def traced_peak(m_out):
        cfg = small_config(tmp_path, medium=MediumConfig(n_in=256, m_out=m_out, seed=1281))
        tracemalloc.start()
        try:
            run(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = traced_peak(1024), traced_peak(8192)
    assert large < 8 * 2**20
    assert large - small < 2 * 2**20


@pytest.mark.parametrize("targets", [(96, 8191), (8192 - 64, 8191)])
def test_run_memory_does_not_depend_on_where_the_targets_are(tmp_path, monkeypatch, targets):
    # the block buffers are one set per worker, so the worker count is pinned
    monkeypatch.setattr(medium, "_cpu_count", lambda: 2)
    cfg = small_config(tmp_path, medium=MediumConfig(n_in=256, m_out=8192, seed=1281),
                       target_a=targets[0], target_b=targets[1])
    tracemalloc.start()
    try:
        run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_run_bytes_independent_of_worker_count(tmp_path, monkeypatch):
    cfg = small_config(tmp_path)  # 8 row blocks: 1 and 4 hold the targets, the pass draws the other 6
    digests = []
    for workers in (1, 4):
        monkeypatch.setattr(medium, "_cpu_count", lambda: workers)
        run(cfg)
        digests.append(digest_dir(tmp_path))
    assert digests[0] == digests[1]


def budget_beyond_the_sampler_past_the_prefix(out_dir):
    """A run whose targets (0, 1) lie in row block 0, with a photon budget that fits it but not the block with the
    largest bound."""
    medium_cfg = MediumConfig(n_in=8, m_out=256, seed=39)
    sm = generate_medium(medium_cfg)
    r = propagate(sm, reference_field(8, CalibrationConfig(reference_seed=39)))
    terms = [(np.max(np.abs(medium.row_block(r, block))) + np.max(np.abs(medium.row_block(sm.matrix, block)))) ** 2
             for block in range(256 // medium.ROW_BLOCK)]
    assert max(terms) > terms[0]
    ppm = rng.POISSON_LAM_MAX / math.sqrt(max(terms) * terms[0])
    calibration = CalibrationConfig(photons_per_measurement=ppm, reference_seed=39, noise_seed=40)
    return small_config(out_dir, medium=medium_cfg, calibration=calibration, target_a=0, target_b=1)


def test_run_rejects_a_photon_budget_beyond_the_sampler_past_the_prefix(tmp_path):
    cfg = budget_beyond_the_sampler_past_the_prefix(tmp_path)
    measure_sm(generate_medium(dataclasses.replace(cfg.medium, m_out=medium.ROW_BLOCK)), cfg.calibration)
    with pytest.raises(ConfigError, match="Poisson"):
        run(cfg)


def test_run_over_earlier_outputs_gives_the_fresh_directory_bytes(tmp_path):
    small = load_config(os.path.join(os.path.dirname(os.path.dirname(__file__)), "configs", "small.ini"),
                        seed=1, output_dir=str(tmp_path))

    def run_with(m_out):
        run(dataclasses.replace(small, medium=dataclasses.replace(small.medium, m_out=m_out)))
        return digest_dir(tmp_path)

    fresh = run_with(1000)
    assert len(fresh) == 11
    # a larger run's SMX files are longer than this run's
    run_with(1024)
    assert run_with(1000) == fresh
    # SMX files shorter than this run's, text files longer, none holding a valid byte
    for name in fresh:
        (tmp_path / name).write_bytes(b"\xff" * 2**21)
    assert run_with(1000) == fresh


def test_run_failing_on_a_scan_knob_fails_before_the_row_pass(tmp_path):
    cfg = small_config(tmp_path, scenario="scan", medium=MediumConfig(n_in=64, m_out=128, seed=1281),
                       target_a=3, target_b=90, noise=NoiseConfig(background_fraction=1e307))
    with pytest.raises(ConfigError):
        run(cfg)
    for name in ("medium.smx", "sm_estimate.smx"):
        assert (tmp_path / name).stat().st_size == 0
    assert not (tmp_path / "sm_fidelity.csv").exists()


@pytest.mark.parametrize("scenario,knob", [("focus", "trigger_rate * acquisition_time"),
                                           ("tomo", "trigger_rate or dark_rate"),
                                           ("full", "trigger_rate * acquisition_time")])  # focus runs first
def test_run_failing_on_a_source_knob_fails_before_the_row_pass(tmp_path, scenario, knob):
    cfg = small_config(tmp_path, scenario=scenario, medium=MediumConfig(n_in=64, m_out=256, seed=1281),
                       target_a=3, target_b=90, source=SourceConfig(trigger_rate=1e300))
    with pytest.raises(ConfigError, match=re.escape(f"{knob} gives a Poisson mean")):
        run(cfg)
    for name in ("medium.smx", "sm_estimate.smx"):
        assert (tmp_path / name).stat().st_size == 0
    assert not (tmp_path / "sm_fidelity.csv").exists()
    assert not (tmp_path / "fringes.csv").exists()


@pytest.mark.parametrize("photons", [None, 1e4], ids=["noiseless", "noisy"])
@pytest.mark.parametrize("m_out,targets", [
    (256, (3, 40)),  # one block
    (256, (3, 150)),  # two blocks
    (1000, (970, 999)),  # the partial last block
    (1000, (999, 5)),  # reverse order, one of them in the partial last block
    (256, (40, 3)),  # reverse order in one block
])
def test_target_rows_are_rows_of_the_whole_medium_and_estimate(tmp_path, monkeypatch, photons, m_out, targets):
    cfg = ExperimentConfig(medium=MediumConfig(n_in=16, m_out=m_out, seed=7),
                           calibration=CalibrationConfig(photons_per_measurement=photons, reference_seed=8, noise_seed=9),
                           target_a=targets[0], target_b=targets[1], output_dir=str(tmp_path / "missing"))
    monkeypatch.chdir(tmp_path)
    pair_true, pair_estimate = target_rows(cfg)
    sm = generate_medium(cfg.medium)
    assert np.array_equal(pair_true.matrix, sm.matrix[list(targets)])
    assert np.array_equal(pair_estimate.matrix, measure_sm(sm, cfg.calibration).matrix.matrix[list(targets)])
    assert os.listdir(tmp_path) == []  # no output directory needed, no file written


def test_run_failing_in_the_row_pass_leaves_empty_smx_files(tmp_path):
    cfg = budget_beyond_the_sampler_past_the_prefix(tmp_path)
    # a good run of the same shape leaves SMX files of the failing run's length
    run(dataclasses.replace(cfg, calibration=dataclasses.replace(cfg.calibration, photons_per_measurement=1e4)))
    with pytest.raises(ConfigError, match="Poisson"):
        run(cfg)
    for name in ("medium.smx", "sm_estimate.smx"):
        assert (tmp_path / name).stat().st_size == 0
        with pytest.raises(FormatError):
            load_smx(tmp_path / name)


def test_emitted_medium_matches_generator(tmp_path):
    cfg = small_config(tmp_path, scenario="scan")
    run(cfg)
    stored = load_smx(tmp_path / "medium.smx")
    assert np.array_equal(stored.matrix, generate_medium(cfg.medium).matrix)


def test_cli_success_and_failure(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    ini = tmp_path / "cfg.ini"
    ini.write_text(
        "[medium]\nn_in = 64\nm_out = 256\n\n"
        "[calibration]\nphotons_per_measurement = noiseless\n\n"
        "[targets]\nindex_a = 5\nindex_b = 9\n\n"
        "[run]\nseed = 3\n"
    )
    assert main(["focus", "--config", str(ini), "--out", str(out)]) == 0
    assert "focus: ok" in capsys.readouterr().out

    assert main(["focus", "--config", str(ini), "--out", str(tmp_path / "missing")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR ConfigError:")

    assert main(["tomo", "--config", str(tmp_path / "nofile.ini")]) == 1
    assert capsys.readouterr().err.startswith("ERROR FileNotFoundError:")


def test_cli_exits_1_without_a_traceback_when_stdout_is_closed(tmp_path):
    # as in `specklewalk full ... | head -1`, where the reader is gone before the summary is printed
    ini = tmp_path / "cfg.ini"
    ini.write_text("[medium]\nn_in = 16\nm_out = 64\n\n[targets]\nindex_a = 3\nindex_b = 40\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(medium.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run([sys.executable, "-m", "specklewalk.cli", "full", "--config", str(ini), "--out",
                                str(tmp_path)], stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert (child.returncode, child.stderr) == (1, "")
    assert (tmp_path / "report.json").is_file()


PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pyproject.toml")


def test_console_script_names_the_cli_main():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        assert tomllib.load(fh)["project"]["scripts"] == {"specklewalk": "specklewalk.cli:main"}
    assert callable(main)


def test_the_project_version_is_the_package_version():
    # report.json echoes __version__ as software_version, so a bump that misses either one fails here
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == __version__


def test_installed_setuptools_meets_the_declared_build_floor():
    # `pip install --no-build-isolation` builds with the installed setuptools, whatever [build-system] asks for
    tomllib = pytest.importorskip("tomllib")
    try:
        installed = importlib.metadata.version("setuptools")
    except importlib.metadata.PackageNotFoundError:
        pytest.skip("setuptools is not installed")
    with open(PYPROJECT, "rb") as fh:
        requires = tomllib.load(fh)["build-system"]["requires"]
    floor = next(req.partition(">=")[2] for req in requires if req.startswith("setuptools"))

    def release(version):
        return tuple(int(part) for part in re.match(r"\d+(\.\d+)*", version).group().split("."))

    assert release(installed) >= release(floor), f"setuptools {installed} is below the declared floor {floor}"


def test_cli_scenario_overrides_file(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    ini = tmp_path / "cfg.ini"
    ini.write_text(
        "[medium]\nn_in = 64\nm_out = 256\n\n"
        "[calibration]\nphotons_per_measurement = noiseless\n\n"
        "[targets]\nindex_a = 5\nindex_b = 9\n\n"
        "[run]\nscenario = full\nseed = 3\n"
    )
    assert main(["scan", "--config", str(ini), "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["scenario"] == "scan"


def test_config_dict_has_stable_shape():
    doc = config_to_dict(small_config("x"))
    assert set(doc) == {"medium", "calibration", "source", "targets", "noise", "run"}
    assert json.dumps(doc, sort_keys=True)  # JSON-serializable
