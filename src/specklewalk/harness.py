"""Named, reproducible experiment scenarios and their file outputs.

A scenario (selected on the command line or in [run] scenario) runs its
stages (``PIPELINES``) on one medium and one calibration estimate:

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

Every run table (``sm_fidelity.csv``, ``scan_*.csv``, ``fringes.csv``,
``probabilities.csv``) goes through ``_write_csv`` and every JSON file
through ``_write_json``. Only the two formats with a loader live with
their types: ``medium.save_smx`` and ``slm.save_mask_csv``.
"""

from __future__ import annotations

import configparser
import dataclasses
import json
import os
import time
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Optional

import numpy as np

from . import __version__
from . import rng
from .errors import ConfigError, StatisticsError, require_finite
from .medium import MediumConfig, ScatteringMatrix, generate_medium, propagate, save_smx
from .slm import TargetSpec, apply_mask, conjugate_mask, dual_target_spec, random_mask, save_mask_csv
from .calibration import CalibrationConfig, SmEstimate, measure_sm, sm_fidelity
from .quantum import SourceConfig, mode_probabilities, simulate_counts, estimate_state
from .tomography import (build_density_matrix, coherence_from_visibility, concurrence, concurrence_error,
                         concurrence_threshold, fit_visibility, positivity_confidence, scan_fringes)

# scenario -> the stages it runs, in order, on one medium and one estimate
PIPELINES = {
    "focus": ("focus",),
    "scan": ("scan",),
    "fringes": ("fringes",),
    "tomo": ("tomo",),
    "full": ("focus", "fringes", "tomo"),
}
SCENARIOS = tuple(PIPELINES)


@dataclass(frozen=True)
class NoiseConfig:
    sigma_phi: float = 0.700  # tuned once so the default pipeline lands at the reference visibility 0.78
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
    config: ExperimentConfig
    result: dict
    wall_time: float


def _parse_photons(text: str):
    if text.strip().lower() in ("noiseless", "none"):
        return None
    return float(text)


def _parse_text(text: str) -> str:
    """A plain value, or a JSON string literal (how ``config_to_ini`` writes text INI cannot hold)."""
    return json.loads(text) if text.startswith('"') else text


# The INI schema, one row per key: (section, key, ExperimentConfig attribute path, parser).
# Keys a file leaves out take their value from ExperimentConfig(); unknown entries are hard errors.
_FIELDS = (
    ("medium", "n_in", "medium.n_in", int),
    ("medium", "m_out", "medium.m_out", int),
    ("medium", "transmission", "medium.transmission", float),
    ("medium", "seed", "medium.seed", int),
    ("medium", "mean_free_path_note", "medium.mean_free_path_note", _parse_text),
    ("calibration", "phase_steps", "calibration.phase_steps", int),
    ("calibration", "photons_per_measurement", "calibration.photons_per_measurement", _parse_photons),
    ("calibration", "reference_seed", "calibration.reference_seed", int),
    ("calibration", "noise_seed", "calibration.noise_seed", int),
    *(("source", field.name, f"source.{field.name}", float) for field in dataclasses.fields(SourceConfig)),
    ("targets", "index_a", "target_a", int),
    ("targets", "index_b", "target_b", int),
    *(("noise", field.name, f"noise.{field.name}", float) for field in dataclasses.fields(NoiseConfig)),
    ("run", "scenario", "scenario", _parse_text),
    ("run", "n_steps", "n_steps", int),
    ("run", "counts_per_step", "counts_per_step", float),
    ("run", "counts_sampling", "counts_sampling", _parse_text),
    ("run", "output_dir", "output_dir", _parse_text),
    ("run", "seed", "seed", int),
)
_SECTIONS = tuple(dict.fromkeys(section for section, *_ in _FIELDS))
_KEYS = {(section, key): (path, parse) for section, key, path, parse in _FIELDS}
# sub-seeds a file leaves out are derived from the master seed, one stream each
_DERIVED_SEEDS = {
    "medium.seed": rng.MEDIUM,
    "calibration.reference_seed": rng.REFERENCE,
    "calibration.noise_seed": rng.CALIBRATION_NOISE,
}


def parse_config_text(text: str, *, scenario: Optional[str] = None, seed: Optional[int] = None,
                      output_dir: Optional[str] = None) -> ExperimentConfig:
    """Parse an INI config; optional overrides replace file values before seed derivation."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config file is not valid INI: {exc}") from exc

    given = {}  # attribute path -> value
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]; known sections: {sorted(_SECTIONS)}")
        for key, raw in parser.items(section):
            if (section, key) not in _KEYS:
                known = sorted(k for s, k in _KEYS if s == section)
                raise ConfigError(f"unknown key {key!r} in section [{section}]; known keys: {known}")
            path, parse = _KEYS[section, key]
            try:
                given[path] = parse(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc

    overrides = {"scenario": scenario, "seed": seed, "output_dir": output_dir}
    given.update((path, value) for path, value in overrides.items() if value is not None)
    defaults = ExperimentConfig()
    master_seed = given.get("seed", defaults.seed)
    for path, stream in _DERIVED_SEEDS.items():
        given.setdefault(path, rng.child_seed(master_seed, stream))

    # every field, grouped under the sub-config that owns it; sub-configs are built, and so checked, in table order
    owners = {}
    for _, _, path, _ in _FIELDS:
        owner, _, name = path.rpartition(".")
        owners.setdefault(owner, {})[name] = given.get(path, attrgetter(path)(defaults))
    top = owners.pop("")
    return ExperimentConfig(**top, **{owner: dataclasses.replace(getattr(defaults, owner), **fields)
                                      for owner, fields in owners.items()})


def load_config(path, *, scenario: Optional[str] = None, seed: Optional[int] = None,
                output_dir: Optional[str] = None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), scenario=scenario, seed=seed, output_dir=output_dir)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    doc = {section: {} for section in _SECTIONS}
    for section, key, path, _ in _FIELDS:
        doc[section][key] = attrgetter(path)(cfg)
    if cfg.medium.mean_free_path_note is None:
        del doc["medium"]["mean_free_path_note"]
    return doc


def config_to_ini(cfg: ExperimentConfig) -> str:
    lines = []
    for section, entries in config_to_dict(cfg).items():
        lines.append(f"[{section}]\n")
        lines.extend(f"{key} = {_ini_value(value)}\n" for key, value in entries.items())
        lines.append("\n")
    return "".join(lines)


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


def _write_csv(path, header, rows) -> None:
    """One run table: the header line, then one line per tuple of Python scalars (``%s`` is the shortest repr)."""
    line = ",".join(["%s"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("".join([line % row for row in rows]))


@dataclass(frozen=True)
class _Shared:
    """What the stages of one run share; the fringe scan and its fit are made once, when first used."""

    cfg: ExperimentConfig
    out: str
    sm_true: ScatteringMatrix
    estimate: SmEstimate
    fidelities: np.ndarray

    @cached_property
    def scan(self):
        cfg = self.cfg
        scan = scan_fringes(
            self.sm_true, self.estimate.matrix, cfg.target_a, cfg.target_b,
            n_steps=cfg.n_steps,
            counts_per_step=cfg.counts_per_step,
            seed=cfg.seed,
            sigma_phi=cfg.noise.sigma_phi,
            background_fraction=cfg.noise.background_fraction,
            sampling=cfg.counts_sampling,
        )
        # every step lasts unit time
        _write_csv(os.path.join(self.out, "fringes.csv"), ("phi", "counts", "duration"),
                   ((phi, count, 1.0) for phi, count in zip(scan.phi.tolist(), scan.counts.tolist())))
        return scan

    @cached_property
    def fit(self):
        return fit_visibility(self.scan)


def _focus_stage(shared: _Shared) -> dict:
    cfg, out = shared.cfg, shared.out
    m_out = cfg.medium.m_out
    src = cfg.source
    rng.check_poisson_mean(src.trigger_rate * src.acquisition_time, "trigger_rate * acquisition_time")
    focused_mask = conjugate_mask(shared.estimate.matrix, TargetSpec.single(cfg.target_a))
    baseline_mask = random_mask(cfg.medium.n_in, cfg.seed)

    half = cfg.n_steps // 2
    lo = max(0, cfg.target_a - half)
    hi = min(m_out, lo + cfg.n_steps)
    lo = max(0, hi - cfg.n_steps)
    window = np.arange(lo, hi)

    gen = rng.generator(cfg.seed, rng.FOCUS_SCAN)
    fractions = {}
    for name, mask in (("focused", focused_mask), ("random", baseline_mask)):
        save_mask_csv(os.path.join(out, f"mask_{name}.csv"), mask)
        intensities = np.abs(propagate(shared.sm_true, apply_mask(mask))) ** 2
        if name == "focused":  # from these intensities: slm.enhancement would propagate a second time
            target_power = float(intensities[cfg.target_a])
            enh = target_power / ((intensities.sum() - target_power) / (m_out - 1))
        share = intensities / intensities.sum()
        mean_counts = src.trigger_rate * src.acquisition_time * src.heralding_efficiency \
            * src.collection_efficiency * share[window]
        counts = gen.poisson(mean_counts)
        _write_csv(os.path.join(out, f"scan_{name}.csv"), ("mode_index", "counts"),
                   zip(window.tolist(), counts.tolist()))
        fractions[name] = src.collection_efficiency * float(share[cfg.target_a])
    return {
        "focused_fraction": fractions["focused"],
        "random_fraction": fractions["random"],
        "enhancement": enh,
        "scan_window": [int(lo), int(hi)],
        "mean_row_fidelity": float(np.mean(shared.fidelities)),
    }


_PROBABILITIES = ("p00", "p01", "p10", "p11")


def _tomo_stage(shared: _Shared) -> dict:
    cfg, out, estimate, vis = shared.cfg, shared.out, shared.estimate, shared.fit
    split_spec = dual_target_spec(estimate.matrix, cfg.target_a, cfg.target_b, 0.0)
    mask = conjugate_mask(estimate.matrix, split_spec)
    q_a, q_b = mode_probabilities(shared.sm_true, mask, (cfg.target_a, cfg.target_b),
                                  cfg.source.collection_efficiency)
    counts = simulate_counts(q_a, q_b, cfg.source, cfg.seed)
    _write_json(os.path.join(out, "counts.json"),
                {**dataclasses.asdict(counts), "config": config_to_dict(cfg)["source"]})

    if counts.n_T <= 0:
        raise StatisticsError("acquisition produced no trigger counts; cannot estimate the state")
    raw_p10 = counts.n_AT / counts.n_T
    raw_p01 = counts.n_BT / counts.n_T
    d_raw = coherence_from_visibility(vis.visibility, raw_p01, raw_p10)
    state = estimate_state(counts, d_raw)
    _write_csv(os.path.join(out, "probabilities.csv"), ("quantity", "value", "std_error"),
               ((p, getattr(state, p), getattr(state, f"{p}_err")) for p in _PROBABILITIES))

    rho = build_density_matrix(state)
    c_value = concurrence(state.p00, state.p11, state.d_mag)
    threshold = concurrence_threshold(counts.n_T, state.d_mag, state.p00)
    confidence = positivity_confidence(counts.n_ABT, threshold) if threshold >= 0 else 0.0
    c_err = concurrence_error(state, vis.visibility, vis.visibility_err, counts.n_T)
    return {
        "q_a": q_a,
        "q_b": q_b,
        "counts": dataclasses.asdict(counts),
        "probabilities": {name: getattr(state, name) for p in _PROBABILITIES for name in (p, f"{p}_err")},
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


# stage name -> the function that runs it and returns its result
_STAGES = {
    "focus": _focus_stage,
    "scan": lambda shared: {"n_steps": shared.cfg.n_steps, "total_counts": int(shared.scan.counts.sum())},
    "fringes": lambda shared: dataclasses.asdict(shared.fit),
    "tomo": _tomo_stage,
}


def run(cfg: ExperimentConfig) -> RunReport:
    """Run ``cfg.scenario``: one medium and estimate, its stages in order, then report.json.

    A scenario of one stage reports that stage's result; ``full`` reports
    one result per stage, keyed by stage name.
    """
    started = time.perf_counter()
    out = _require_output_dir(cfg)
    sm_true = generate_medium(cfg.medium)
    estimate = measure_sm(sm_true, cfg.calibration)
    fidelities = sm_fidelity(sm_true, estimate)
    save_smx(os.path.join(out, "medium.smx"), sm_true)
    save_smx(os.path.join(out, "sm_estimate.smx"), estimate.matrix)
    _write_csv(os.path.join(out, "sm_fidelity.csv"), ("row", "fidelity"), enumerate(fidelities.tolist()))

    shared = _Shared(cfg, out, sm_true, estimate, fidelities)
    stages = PIPELINES[cfg.scenario]
    results = {stage: _STAGES[stage](shared) for stage in stages}
    result = results[stages[0]] if len(stages) == 1 else results
    _write_json(os.path.join(out, "report.json"), {
        "scenario": cfg.scenario,
        "software_version": __version__,
        "config": config_to_dict(cfg),
        "result": result,
    })
    return RunReport(config=cfg, result=result, wall_time=time.perf_counter() - started)


# Each runner runs its own scenario, whatever ``cfg.scenario`` says, and reports under that name.
def run_focus(cfg: ExperimentConfig) -> RunReport: return run(dataclasses.replace(cfg, scenario="focus"))
def run_scan(cfg: ExperimentConfig) -> RunReport: return run(dataclasses.replace(cfg, scenario="scan"))
def run_fringes(cfg: ExperimentConfig) -> RunReport: return run(dataclasses.replace(cfg, scenario="fringes"))
def run_tomo(cfg: ExperimentConfig) -> RunReport: return run(dataclasses.replace(cfg, scenario="tomo"))
def run_full(cfg: ExperimentConfig) -> RunReport: return run(dataclasses.replace(cfg, scenario="full"))
