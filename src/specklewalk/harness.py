"""Named, reproducible experiment scenarios and their file outputs.

Scenarios (selected on the command line or in [run] scenario):

  focus    calibrate, then compare a conjugate focusing mask against a
           random baseline on a 1-D window of output modes around the
           target; reports the focused coincidence fraction.
  scan     emit the raw dual-target fringe scan table.
  fringes  fringe scan plus visibility fit.
  tomo     full pipeline to the two-mode state, density matrix,
           concurrence, triple-count threshold and confidence.
  full     focus + fringes + tomo sharing one medium and one estimate.

Every run is a pure function of (config, seed, software version): all
randomness is derived from the master seed through the stream table in
``rng``, and every emitted byte is reproducible. Wall time is returned
on the RunReport but never written to disk.
"""

from __future__ import annotations

import configparser
import io
import json
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from . import __version__
from . import rng
from .errors import ConfigError, StatisticsError, require_finite
from .medium import MediumConfig, generate_medium, propagate, save_smx
from .slm import TargetSpec, apply_mask, conjugate_mask, dual_target_spec, random_mask, save_mask_csv
from .calibration import CalibrationConfig, measure_sm, sm_fidelity, fidelity_csv
from .quantum import SourceConfig, mode_probabilities, simulate_counts, estimate_state, probabilities_csv
from .tomography import (
    concurrence,
    concurrence_threshold,
    coherence_from_visibility,
    build_density_matrix,
    fit_visibility,
    fringe_csv,
    positivity_confidence,
    scan_fringes,
)

SCENARIOS = ("focus", "scan", "fringes", "tomo", "full")

# tuned once so the default pipeline lands at the reference visibility 0.78
DEFAULT_SIGMA_PHI = 0.700


@dataclass(frozen=True)
class NoiseConfig:
    sigma_phi: float = DEFAULT_SIGMA_PHI
    background_fraction: float = 0.0

    def __post_init__(self):
        require_finite(sigma_phi=self.sigma_phi, background_fraction=self.background_fraction)
        if self.sigma_phi < 0 or self.background_fraction < 0:
            raise ConfigError("noise knobs must be nonnegative")


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str = "full"
    medium: MediumConfig = MediumConfig(n_in=1024, m_out=4096, seed=0)
    calibration: CalibrationConfig = CalibrationConfig()
    source: SourceConfig = SourceConfig()
    noise: NoiseConfig = NoiseConfig()
    target_a: int = 96
    target_b: int = 288
    n_steps: int = 21
    counts_per_step: float = 4000.0
    counts_sampling: str = "poisson"
    output_dir: str = "out"
    seed: int = 0

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}, expected one of {SCENARIOS}")
        if not (0 <= self.target_a < self.medium.m_out) or not (0 <= self.target_b < self.medium.m_out):
            raise ConfigError(f"targets ({self.target_a}, {self.target_b}) outside output range [0, {self.medium.m_out})")
        if self.target_a == self.target_b:
            raise ConfigError("target_a and target_b must differ")
        if self.n_steps < 5:
            raise ConfigError(f"n_steps must be >= 5, got {self.n_steps}")
        require_finite(counts_per_step=self.counts_per_step)
        if self.counts_per_step < 0:
            raise ConfigError("counts_per_step must be nonnegative")
        if self.counts_sampling not in ("poisson", "expected"):
            raise ConfigError(f"counts_sampling must be 'poisson' or 'expected', got {self.counts_sampling!r}")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")


@dataclass(frozen=True)
class RunReport:
    scenario: str
    config: ExperimentConfig
    result: dict
    wall_time: float
    software_version: str


# configuration file schema: section -> key -> parser; unknown entries are hard errors
def _parse_photons(text: str):
    if text.strip().lower() in ("noiseless", "none"):
        return None
    value = float(text)
    return value


def _parse_text(text: str) -> str:
    """A plain value, or a JSON string literal (how ``config_to_ini`` writes text INI cannot hold)."""
    return json.loads(text) if text.startswith('"') else text


_SCHEMA = {
    "medium": {
        "n_in": int,
        "m_out": int,
        "transmission": float,
        "seed": int,
        "mean_free_path_note": _parse_text,
    },
    "calibration": {
        "phase_steps": int,
        "photons_per_measurement": _parse_photons,
        "reference_seed": int,
        "noise_seed": int,
    },
    "source": {
        "trigger_rate": float,
        "heralding_efficiency": float,
        "collection_efficiency": float,
        "coincidence_window": float,
        "acquisition_time": float,
        "double_pair_mean": float,
        "dark_rate": float,
    },
    "targets": {
        "index_a": int,
        "index_b": int,
    },
    "noise": {
        "sigma_phi": float,
        "background_fraction": float,
    },
    "run": {
        "scenario": _parse_text,
        "n_steps": int,
        "counts_per_step": float,
        "counts_sampling": _parse_text,
        "output_dir": _parse_text,
        "seed": int,
    },
}


def parse_config_text(text: str, *, scenario: Optional[str] = None, seed: Optional[int] = None,
                      output_dir: Optional[str] = None) -> ExperimentConfig:
    """Parse an INI config; optional overrides replace file values before seed derivation."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config file is not valid INI: {exc}") from exc

    values: Dict[str, Dict[str, object]] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]; known sections: {sorted(_SCHEMA)}")
        values[section] = {}
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]; known keys: {sorted(_SCHEMA[section])}")
            try:
                values[section][key] = _SCHEMA[section][key](raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc

    def get(section: str, key: str, default):
        return values.get(section, {}).get(key, default)

    master_seed = seed if seed is not None else get("run", "seed", 0)
    defaults = ExperimentConfig()

    medium = MediumConfig(
        n_in=get("medium", "n_in", defaults.medium.n_in),
        m_out=get("medium", "m_out", defaults.medium.m_out),
        transmission=get("medium", "transmission", defaults.medium.transmission),
        seed=get("medium", "seed", rng.child_seed(master_seed, rng.MEDIUM)),
        mean_free_path_note=get("medium", "mean_free_path_note", None),
    )
    calibration = CalibrationConfig(
        phase_steps=get("calibration", "phase_steps", defaults.calibration.phase_steps),
        photons_per_measurement=get("calibration", "photons_per_measurement",
                                    defaults.calibration.photons_per_measurement),
        reference_seed=get("calibration", "reference_seed", rng.child_seed(master_seed, rng.REFERENCE)),
        noise_seed=get("calibration", "noise_seed", rng.child_seed(master_seed, rng.CALIBRATION_NOISE)),
    )
    source = SourceConfig(
        trigger_rate=get("source", "trigger_rate", defaults.source.trigger_rate),
        heralding_efficiency=get("source", "heralding_efficiency", defaults.source.heralding_efficiency),
        collection_efficiency=get("source", "collection_efficiency", defaults.source.collection_efficiency),
        coincidence_window=get("source", "coincidence_window", defaults.source.coincidence_window),
        acquisition_time=get("source", "acquisition_time", defaults.source.acquisition_time),
        double_pair_mean=get("source", "double_pair_mean", defaults.source.double_pair_mean),
        dark_rate=get("source", "dark_rate", defaults.source.dark_rate),
    )
    noise = NoiseConfig(
        sigma_phi=get("noise", "sigma_phi", defaults.noise.sigma_phi),
        background_fraction=get("noise", "background_fraction", defaults.noise.background_fraction),
    )
    return ExperimentConfig(
        scenario=scenario if scenario is not None else get("run", "scenario", defaults.scenario),
        medium=medium,
        calibration=calibration,
        source=source,
        noise=noise,
        target_a=get("targets", "index_a", defaults.target_a),
        target_b=get("targets", "index_b", defaults.target_b),
        n_steps=get("run", "n_steps", defaults.n_steps),
        counts_per_step=get("run", "counts_per_step", defaults.counts_per_step),
        counts_sampling=get("run", "counts_sampling", defaults.counts_sampling),
        output_dir=output_dir if output_dir is not None else get("run", "output_dir", defaults.output_dir),
        seed=master_seed,
    )


def load_config(path, *, scenario: Optional[str] = None, seed: Optional[int] = None,
                output_dir: Optional[str] = None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), scenario=scenario, seed=seed, output_dir=output_dir)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    doc = {
        "medium": {
            "n_in": cfg.medium.n_in,
            "m_out": cfg.medium.m_out,
            "transmission": cfg.medium.transmission,
            "seed": cfg.medium.seed,
        },
        "calibration": {
            "phase_steps": cfg.calibration.phase_steps,
            "photons_per_measurement": cfg.calibration.photons_per_measurement,
            "reference_seed": cfg.calibration.reference_seed,
            "noise_seed": cfg.calibration.noise_seed,
        },
        "source": {
            "trigger_rate": cfg.source.trigger_rate,
            "heralding_efficiency": cfg.source.heralding_efficiency,
            "collection_efficiency": cfg.source.collection_efficiency,
            "coincidence_window": cfg.source.coincidence_window,
            "acquisition_time": cfg.source.acquisition_time,
            "double_pair_mean": cfg.source.double_pair_mean,
            "dark_rate": cfg.source.dark_rate,
        },
        "targets": {"index_a": cfg.target_a, "index_b": cfg.target_b},
        "noise": {
            "sigma_phi": cfg.noise.sigma_phi,
            "background_fraction": cfg.noise.background_fraction,
        },
        "run": {
            "scenario": cfg.scenario,
            "n_steps": cfg.n_steps,
            "counts_per_step": cfg.counts_per_step,
            "counts_sampling": cfg.counts_sampling,
            "output_dir": cfg.output_dir,
            "seed": cfg.seed,
        },
    }
    if cfg.medium.mean_free_path_note is not None:
        doc["medium"]["mean_free_path_note"] = cfg.medium.mean_free_path_note
    return doc


def config_to_ini(cfg: ExperimentConfig) -> str:
    doc = config_to_dict(cfg)
    buf = io.StringIO()
    for section in ("medium", "calibration", "source", "targets", "noise", "run"):
        buf.write(f"[{section}]\n")
        for key, value in doc[section].items():
            buf.write(f"{key} = {_ini_value(value)}\n")
        buf.write("\n")
    return buf.getvalue()


def _ini_value(value) -> str:
    if value is None:
        return "noiseless"
    # INI strips surrounding whitespace and splits lines, so such text is written as a JSON literal
    if isinstance(value, str) and (value != value.strip() or not value.isprintable() or value.startswith('"')):
        return json.dumps(value)
    return str(value)


def _require_output_dir(cfg: ExperimentConfig) -> str:
    path = cfg.output_dir
    if not os.path.isdir(path):
        raise ConfigError(f"output_dir {path!r} does not exist (create it before running)")
    if not os.access(path, os.W_OK):
        raise ConfigError(f"output_dir {path!r} is not writable")
    return path


def _write_json(path, document: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(document, fh, sort_keys=True, indent=2, ensure_ascii=False)
        fh.write("\n")


def _prepare(cfg: ExperimentConfig, out: str):
    sm_true = generate_medium(cfg.medium)
    estimate = measure_sm(sm_true, cfg.calibration)
    fidelities = sm_fidelity(sm_true, estimate)
    save_smx(os.path.join(out, "medium.smx"), sm_true)
    save_smx(os.path.join(out, "sm_estimate.smx"), estimate.matrix)
    fidelity_csv(os.path.join(out, "sm_fidelity.csv"), fidelities)
    return sm_true, estimate, fidelities


def _focus_stage(cfg: ExperimentConfig, out: str, sm_true, estimate) -> dict:
    n_in = cfg.medium.n_in
    m_out = cfg.medium.m_out
    src = cfg.source
    focused_mask = conjugate_mask(estimate.matrix, TargetSpec.single(cfg.target_a))
    baseline_mask = random_mask(n_in, cfg.seed)
    save_mask_csv(os.path.join(out, "mask_focused.csv"), focused_mask)
    save_mask_csv(os.path.join(out, "mask_random.csv"), baseline_mask)

    half = cfg.n_steps // 2
    lo = max(0, cfg.target_a - half)
    hi = min(m_out, lo + cfg.n_steps)
    lo = max(0, hi - cfg.n_steps)
    window = np.arange(lo, hi)

    gen = rng.generator(cfg.seed, rng.FOCUS_SCAN)
    fractions = {}
    focused_intensities = None
    for name, mask in (("focused", focused_mask), ("random", baseline_mask)):
        intensities = np.abs(propagate(sm_true, apply_mask(mask, 1.0))) ** 2
        if name == "focused":
            focused_intensities = intensities
        share = intensities / intensities.sum()
        mean_counts = src.trigger_rate * src.acquisition_time * src.heralding_efficiency \
            * src.collection_efficiency * share[window]
        counts = gen.poisson(mean_counts)
        with open(os.path.join(out, f"scan_{name}.csv"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write("mode_index,counts\n")
            for index, count in zip(window, counts):
                fh.write(f"{int(index)},{int(count)}\n")
        fractions[name] = src.collection_efficiency * float(share[cfg.target_a])

    target_power = float(focused_intensities[cfg.target_a])
    enh = target_power / ((focused_intensities.sum() - target_power) / (m_out - 1))
    return {
        "focused_fraction": fractions["focused"],
        "random_fraction": fractions["random"],
        "enhancement": enh,
        "scan_window": [int(lo), int(hi)],
    }


def _fringe_stage(cfg: ExperimentConfig, out: str, sm_true, estimate):
    scan = scan_fringes(
        sm_true, estimate.matrix, cfg.target_a, cfg.target_b,
        n_steps=cfg.n_steps,
        counts_per_step=cfg.counts_per_step,
        seed=cfg.seed,
        sigma_phi=cfg.noise.sigma_phi,
        background_fraction=cfg.noise.background_fraction,
        sampling=cfg.counts_sampling,
    )
    fringe_csv(os.path.join(out, "fringes.csv"), scan)
    return scan


def _tomo_stage(cfg: ExperimentConfig, out: str, sm_true, estimate, vis) -> dict:
    split_spec = dual_target_spec(estimate.matrix, cfg.target_a, cfg.target_b, 0.0)
    mask = conjugate_mask(estimate.matrix, split_spec)
    q_a, q_b = mode_probabilities(sm_true, mask, (cfg.target_a, cfg.target_b),
                                  cfg.source.collection_efficiency)
    counts = simulate_counts(q_a, q_b, cfg.source, cfg.seed)
    _write_json(os.path.join(out, "counts.json"),
                {**counts.to_json_dict(), "config": config_to_dict(cfg)["source"]})

    if counts.n_T <= 0:
        raise StatisticsError("acquisition produced no trigger counts; cannot estimate the state")
    raw_p10 = counts.n_AT / counts.n_T
    raw_p01 = counts.n_BT / counts.n_T
    d_raw = coherence_from_visibility(vis.visibility, raw_p01, raw_p10)
    state = estimate_state(counts, d_raw)
    probabilities_csv(os.path.join(out, "probabilities.csv"), state)

    rho = build_density_matrix(state)
    c_value = concurrence(state.p00, state.p11, state.d_mag)
    threshold = concurrence_threshold(counts.n_T, state.d_mag, state.p00)
    confidence = positivity_confidence(counts.n_ABT, threshold) if threshold >= 0 else 0.0
    c_err = _concurrence_error(state, vis.visibility, vis.visibility_err, counts.n_T)
    return {
        "q_a": q_a,
        "q_b": q_b,
        "counts": counts.to_json_dict(),
        "probabilities": {
            "p00": state.p00, "p00_err": state.p00_err,
            "p01": state.p01, "p01_err": state.p01_err,
            "p10": state.p10, "p10_err": state.p10_err,
            "p11": state.p11, "p11_err": state.p11_err,
        },
        "visibility": vis.visibility,
        "visibility_err": vis.visibility_err,
        "d_mag": state.d_mag,
        "d_clamped": state.d_clamped,
        "density_matrix_diag": [float(np.real(rho[i, i])) for i in range(4)],
        "concurrence": c_value,
        "concurrence_err": c_err,
        "triple_threshold": threshold,
        "confidence": confidence,
        "exceeds_99": bool(confidence > 0.99),
    }


def _concurrence_error(state, visibility: float, visibility_err: float, n_t: int) -> float:
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


def _report(cfg: ExperimentConfig, result: dict, started: float) -> RunReport:
    return RunReport(
        scenario=cfg.scenario,
        config=cfg,
        result=result,
        wall_time=time.perf_counter() - started,
        software_version=__version__,
    )


def _emit_report(cfg: ExperimentConfig, out: str, result: dict) -> None:
    _write_json(os.path.join(out, "report.json"), {
        "scenario": cfg.scenario,
        "software_version": __version__,
        "config": config_to_dict(cfg),
        "result": result,
    })


def run_focus(cfg: ExperimentConfig) -> RunReport:
    started = time.perf_counter()
    out = _require_output_dir(cfg)
    sm_true, estimate, fidelities = _prepare(cfg, out)
    result = _focus_stage(cfg, out, sm_true, estimate)
    result["mean_row_fidelity"] = float(np.mean(fidelities))
    _emit_report(cfg, out, result)
    return _report(cfg, result, started)


def run_scan(cfg: ExperimentConfig) -> RunReport:
    started = time.perf_counter()
    out = _require_output_dir(cfg)
    sm_true, estimate, _ = _prepare(cfg, out)
    scan = _fringe_stage(cfg, out, sm_true, estimate)
    result = {"n_steps": cfg.n_steps, "total_counts": int(scan.counts.sum())}
    _emit_report(cfg, out, result)
    return _report(cfg, result, started)


def run_fringes(cfg: ExperimentConfig) -> RunReport:
    started = time.perf_counter()
    out = _require_output_dir(cfg)
    sm_true, estimate, _ = _prepare(cfg, out)
    scan = _fringe_stage(cfg, out, sm_true, estimate)
    vis = fit_visibility(scan)
    result = {
        "visibility": vis.visibility,
        "visibility_err": vis.visibility_err,
        "offset": vis.offset,
        "phase0": vis.phase0,
        "residual_rms": vis.residual_rms,
    }
    _emit_report(cfg, out, result)
    return _report(cfg, result, started)


def run_tomo(cfg: ExperimentConfig) -> RunReport:
    started = time.perf_counter()
    out = _require_output_dir(cfg)
    sm_true, estimate, _ = _prepare(cfg, out)
    scan = _fringe_stage(cfg, out, sm_true, estimate)
    vis = fit_visibility(scan)
    result = _tomo_stage(cfg, out, sm_true, estimate, vis)
    _emit_report(cfg, out, result)
    return _report(cfg, result, started)


def run_full(cfg: ExperimentConfig) -> RunReport:
    started = time.perf_counter()
    out = _require_output_dir(cfg)
    sm_true, estimate, fidelities = _prepare(cfg, out)
    focus_result = _focus_stage(cfg, out, sm_true, estimate)
    focus_result["mean_row_fidelity"] = float(np.mean(fidelities))
    scan = _fringe_stage(cfg, out, sm_true, estimate)
    vis = fit_visibility(scan)
    fringe_result = {
        "visibility": vis.visibility,
        "visibility_err": vis.visibility_err,
        "offset": vis.offset,
        "phase0": vis.phase0,
        "residual_rms": vis.residual_rms,
    }
    tomo_result = _tomo_stage(cfg, out, sm_true, estimate, vis)
    result = {"focus": focus_result, "fringes": fringe_result, "tomo": tomo_result}
    _emit_report(cfg, out, result)
    return _report(cfg, result, started)


RUNNERS: Dict[str, Callable[[ExperimentConfig], RunReport]] = {
    "focus": run_focus,
    "scan": run_scan,
    "fringes": run_fringes,
    "tomo": run_tomo,
    "full": run_full,
}


def run(cfg: ExperimentConfig) -> RunReport:
    return RUNNERS[cfg.scenario](cfg)
