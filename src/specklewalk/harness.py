"""Named, reproducible experiment scenarios and their file outputs.

A scenario (selected on the command line or in [run] scenario) runs its
stages in order (``PIPELINES``; ``STAGES`` says what each checks,
propagates, reads and writes) on one medium and one calibration estimate:

  focus    calibrate, then count coincidences, dark-count accidentals
           included, on a 1-D window of output modes around the target
           for a conjugate focusing field and a random baseline; reports
           the focused coincidence fraction.
  scan     emit the raw dual-target fringe scan table.
  fringes  fringe scan plus visibility fit.
  tomo     full pipeline to the two-mode state (its diagonal and
           coherence), concurrence, triple-count threshold and confidence.
  full     focus + fringes + tomo sharing one medium and one estimate.

Every run is a pure function of (config, seed, software version): all
randomness is derived from the master seed through the stream table in
``rng``, and every emitted byte is reproducible. Wall time is returned
on the RunReport but never written to disk.

A run never holds a whole matrix. It works in two phases over the row
blocks of ``medium.ROW_BLOCK`` rows, whose bytes depend only on their
own block, with both SMX files open from the start:

  1. ``target_rows``: the one or two blocks that hold the targets are
     drawn together on the row-block pool (``medium.draw_block``, into
     arrays this thread allocates), then calibrated one after the other
     in this thread (``measure_sm`` from the block's own noise stream).
     Their two target rows, true and estimated, give the fringe scan and
     every field the stages propagate, each conjugate one from
     ``slm.conjugate_fields``. The blocks are then written, scored and
     propagated, and dropped. The fringe scan and its fit run next, on the
     two target rows alone, so a bad scan knob fails before the pass.
  2. One ``medium.map_row_blocks`` pass draws and calibrates every other
     block, computes its row fidelities, writes both SMX blocks at their
     file offsets, and propagates each field through the block's rows.
     Each worker does this in one set of block buffers, allocated by the
     calling thread before the pass: temporaries made new for every
     block are mapped and page-faulted in afresh each time.

``run`` then calls each stage's result function in order. Memory depends
on neither m_out nor where the targets are: two target blocks, then one
set of block buffers per worker.

Every run table (``sm_fidelity.csv``, ``scan_*.csv``, ``fringes.csv``,
``probabilities.csv``) goes through ``_write_csv`` and every JSON file
through ``_write_json``. Only the two formats with a loader live with
their types: ``medium.save_smx`` and ``slm.save_mask_csv``. Every output
file is rewritten in place, as a run's directory usually holds the last
run's files: the SMX files through ``medium.create_smx``, every text file
through the one writer ``medium.write_text``. Neither truncates on open;
each cuts the file where its bytes end, or to 0 bytes if it fails.
"""

from __future__ import annotations

import configparser
import dataclasses
import itertools
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Optional, get_type_hints

import numpy as np

from . import __version__
# the row-block pass calls its block helpers through their modules: perfbench/tracing.py wraps the
# names imported here, and its span stack must not be touched from worker threads
from . import calibration, medium, rng
from .errors import ConfigError, require_choice, require_integer, require_nonnegative
from .medium import ROW_BLOCK, MediumConfig, ScatteringMatrix, output_intensities
from .slm import (apply_mask, conjugate_fields, conjugate_phases, dual_target_weights, enhancement, random_mask,
                  save_mask_csv)
from .calibration import CalibrationConfig, measure_sm
from .quantum import (SourceConfig, draw_triggers, estimate_state, mode_probabilities, require_triggers,
                      simulate_counts, twofold_probability)
from .tomography import (SAMPLINGS, coherence_from_visibility, concurrence, concurrence_error,
                         concurrence_threshold, fit_visibility, positivity_confidence, scan_fringes)


@dataclass(frozen=True)
class NoiseConfig:
    sigma_phi: float = 0.700  # tuned once so the default pipeline lands at the reference visibility 0.78
    background_fraction: float = 0.0

    def __post_init__(self):
        require_nonnegative(sigma_phi=self.sigma_phi, background_fraction=self.background_fraction)


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
        require_integer(0, target_a=self.target_a, target_b=self.target_b, seed=self.seed)
        require_integer(5, n_steps=self.n_steps)
        if not (0 <= self.target_a < self.medium.m_out) or not (0 <= self.target_b < self.medium.m_out):
            raise ConfigError(f"targets ({self.target_a}, {self.target_b}) outside output range [0, {self.medium.m_out})")
        if self.target_a == self.target_b:
            raise ConfigError("target_a and target_b must differ")
        require_nonnegative(counts_per_step=self.counts_per_step)
        require_choice(SAMPLINGS, counts_sampling=self.counts_sampling)


@dataclass(frozen=True)
class RunReport:
    config: ExperimentConfig
    result: dict
    wall_time: float


def _parse_photons(text: str):
    if text.strip().lower() in ("noiseless", "none"):
        return None
    return float(text)


_PARSERS = {int: int, float: float, str: str, Optional[float]: _parse_photons}  # field annotation -> parser
# The INI sections in file order, each with its keys: INI key -> ExperimentConfig field, or None for the sub-config of
# the section's name, whose keys are its fields. The file holds no output_dir.
_SECTIONS = {"medium": None, "calibration": None, "source": None, "targets": {"index_a": "target_a", "index_b": "target_b"},
             "noise": None, "run": {name: name for name in ("scenario", "n_steps", "counts_per_step", "counts_sampling", "seed")}}
_HINTS = get_type_hints(ExperimentConfig)  # ExperimentConfig field -> annotation; a sub-config's is its class

# The INI schema: (section, key) -> (owner, field, parser of the field's annotation), where owner is the ExperimentConfig
# field that holds the field's sub-config, or "" for its own fields; the sub-configs' sections first, keys in file order.
# Keys a file leaves out take their value from ExperimentConfig(); unknown entries are hard errors.
_KEYS = {(section, field): (section, field, _PARSERS[hint]) for section, keys in _SECTIONS.items() if keys is None
         for field, hint in get_type_hints(_HINTS[section]).items()}
_KEYS.update(((section, key), ("", field, _PARSERS[_HINTS[field]])) for section, keys in _SECTIONS.items() if keys
             for key, field in keys.items())
# sub-seeds a file leaves out are derived from the master seed, one stream each
_DERIVED_SEEDS = {
    ("medium", "seed"): rng.MEDIUM,
    ("calibration", "reference_seed"): rng.REFERENCE,
    ("calibration", "noise_seed"): rng.CALIBRATION_NOISE,
}


def parse_config_text(text: str, *, scenario: Optional[str] = None, seed: Optional[int] = None,
                      output_dir: Optional[str] = None) -> ExperimentConfig:
    """Parse an INI config; optional overrides replace file or default values before seed derivation."""
    # no header can name the empty default section, so [DEFAULT] is an ordinary section, and so an unknown one:
    # configparser would otherwise copy its keys into every section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config file is not valid INI: {exc}") from exc

    given = {owner: {} for owner, _, _ in _KEYS.values()}  # owner -> field -> value, owners in table order
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]; known sections: {sorted(_SECTIONS)}")
        for key, raw in parser.items(section):
            if (section, key) not in _KEYS:
                known = sorted(k for s, k in _KEYS if s == section)
                raise ConfigError(f"unknown key {key!r} in section [{section}]; known keys: {known}")
            owner, field, parse = _KEYS[section, key]
            try:
                given[owner][field] = parse(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc

    # output_dir is a run setting: the file does not hold it and report.json does not echo it
    overrides = {"scenario": scenario, "seed": seed, "output_dir": output_dir}
    top = given.pop("")
    top.update((name, value) for name, value in overrides.items() if value is not None)
    master_seed = top.get("seed", ExperimentConfig.seed)  # a dataclass keeps each field's default on the class
    for (owner, field), stream in _DERIVED_SEEDS.items():
        given[owner].setdefault(field, rng.child_seed(master_seed, stream))
    # sub-configs are built, and so checked, in table order; ExperimentConfig last
    return ExperimentConfig(**top, **{owner: dataclasses.replace(getattr(ExperimentConfig, owner), **fields)
                                      for owner, fields in given.items()})


def load_config(path, *, scenario: Optional[str] = None, seed: Optional[int] = None,
                output_dir: Optional[str] = None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8-sig") as fh:  # a leading byte-order mark is not part of the INI text
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    return parse_config_text(text, scenario=scenario, seed=seed, output_dir=output_dir)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    doc = {section: {} for section in _SECTIONS}
    for (section, key), (owner, field, _) in _KEYS.items():
        doc[section][key] = getattr(getattr(cfg, owner) if owner else cfg, field)
    return doc


def config_to_ini(cfg: ExperimentConfig) -> str:
    lines = []
    for section, entries in config_to_dict(cfg).items():
        lines.append(f"[{section}]\n")
        lines.extend(f"{key} = {'noiseless' if value is None else value}\n" for key, value in entries.items())
        lines.append("\n")
    return "".join(lines)


def _require_output_dir(cfg: ExperimentConfig) -> str:
    path = cfg.output_dir
    if not os.path.exists(path):
        raise ConfigError(f"output_dir {path!r} does not exist (create it before running)")
    if not os.path.isdir(path):
        raise ConfigError(f"output_dir {path!r} is not a directory")
    if not os.access(path, os.W_OK):
        raise ConfigError(f"output_dir {path!r} is not writable")
    return path


# Output files go through medium.write_text, called through its module like the block helpers, so a traced run
# counts the writing in the harness's own time.
def _write_json(path, document: dict) -> None:
    # a generator, so the document is formatted once the file is open: a document that fails to format leaves it empty
    medium.write_text(path, (json.dumps(d, sort_keys=True, indent=2, ensure_ascii=False) + "\n" for d in [document]))


def _write_csv(path, header, rows) -> None:
    """One run table: the header line, then one line per tuple of Python scalars (``%s`` is the shortest repr)."""
    line = ",".join(["%s"] * len(header)) + "\n"
    medium.write_text(path, itertools.chain([",".join(header) + "\n"], (line % row for row in rows)))


def _scan(cfg: ExperimentConfig, out: str, pair_true: ScatteringMatrix, pair_estimate: ScatteringMatrix):
    """The dual-target fringe scan on the target rows (a, b) of the truth and the estimate; writes fringes.csv."""
    scan = scan_fringes(
        pair_true, pair_estimate, 0, 1,
        n_steps=cfg.n_steps,
        counts_per_step=cfg.counts_per_step,
        seed=cfg.seed,
        sigma_phi=cfg.noise.sigma_phi,
        background_fraction=cfg.noise.background_fraction,
        sampling=cfg.counts_sampling,
    )
    # every step lasts unit time
    _write_csv(os.path.join(out, "fringes.csv"), ("phi", "counts", "duration"),
               ((phi, count, 1.0) for phi, count in zip(scan.phi.tolist(), scan.counts.tolist())))
    return scan


def _target_blocks(cfg: ExperimentConfig):
    """Phase 1: (block -> (its true rows, their estimate by ``measure_sm``) per target block, ``target_rows``' pair).

    The target blocks are drawn together on the pool, into arrays that
    this thread allocates. ``measure_sm`` then runs in this thread, once
    per block, where the benchmark's tracer sees it.
    """
    targets, n_in = (cfg.target_a, cfg.target_b), cfg.medium.n_in
    ids = sorted({t // ROW_BLOCK for t in targets})
    drawn = [np.empty((min(ROW_BLOCK, cfg.medium.m_out - block * ROW_BLOCK), n_in), dtype=np.complex128) for block in ids]

    def draw(i):  # block i of the pass is target block ids[i]
        medium.draw_block(cfg.medium, ids[i], drawn[i])

    medium.map_row_blocks(draw, len(ids) * ROW_BLOCK)
    blocks = {block: (rows, measure_sm(ScatteringMatrix._adopt(rows), cfg.calibration, first_block=block).matrix.matrix)
              for block, rows in zip(ids, drawn)}
    rows = [[part[t % ROW_BLOCK] for part in blocks[t // ROW_BLOCK]] for t in targets]  # (true, estimate) per target
    return blocks, tuple(ScatteringMatrix._adopt(np.array(pair)) for pair in zip(*rows))


def target_rows(cfg: ExperimentConfig):
    """Rows (target_a, target_b) of the medium and of its calibration estimate, as two-row ``ScatteringMatrix``es.

    Only the target row blocks are drawn and calibrated. Each block draws
    from its own streams, so these are the rows of ``generate_medium`` and
    ``measure_sm`` on the whole medium. Reads no output directory and
    writes no file.
    """
    return _target_blocks(cfg)[1]


def _finish_block(smx_files, fields: list, block: int, rows: np.ndarray, est: np.ndarray):
    """Write a block's true and estimated rows into the SMX files; return its row fidelities and each field's output."""
    for fh, part in zip(smx_files, (rows, est)):
        medium.write_smx_rows(fh, block * ROW_BLOCK, part)
    return calibration.row_fidelity(rows, est), [medium.propagate_rows(rows, field) for field in fields]


def _row_pass(cfg: ExperimentConfig, smx_files, fields: list, done: dict):
    """Phase 2: draw, calibrate and finish every block that ``done`` (block -> result) does not hold yet.

    Each worker draws and calibrates its blocks in one set of block
    buffers, allocated here before the pass. Returns the row fidelities
    and the output field for each of ``fields``, over every row.
    """
    m_out, n_in = cfg.medium.m_out, cfg.medium.n_in

    def buffers():  # one worker's true rows, estimate and calibration scratch
        rows = np.empty((ROW_BLOCK, n_in), dtype=np.complex128)
        return rows, np.empty_like(rows), np.empty((3, ROW_BLOCK, n_in))

    def block_pass(block: int, worker_buffers):
        if block in done:
            return done[block]
        size = min(ROW_BLOCK, m_out - block * ROW_BLOCK)
        rows, est, scratch = (buffer[..., :size, :] for buffer in worker_buffers)
        medium.draw_block(cfg.medium, block, rows, scratch[0])
        calibration.estimate_block(rows, cfg.calibration, block, est, scratch)
        return _finish_block(smx_files, fields, block, rows, est)

    blocks = medium.map_row_blocks(block_pass, m_out, per_worker=buffers)
    fidelities = np.concatenate([fidelity for fidelity, _ in blocks])
    return fidelities, [np.concatenate(parts) for parts in zip(*(block_outputs for _, block_outputs in blocks))]


def _focus_stage(cfg: ExperimentConfig, out: str, made: dict) -> dict:
    """Write both masks, and their coincidence scans at the per-trigger ``twofold_probability`` of ``simulate_counts``."""
    m_out, src, outputs = cfg.medium.m_out, cfg.source, made["outputs"]
    # each mask holds the phases of the field its _FIELDS builder made
    masks = {"focused": conjugate_phases(made["estimate"], (0,), [[1.0]])[0], "random": random_mask(cfg.medium.n_in, cfg.seed)}

    half = cfg.n_steps // 2
    lo = max(0, cfg.target_a - half)
    hi = min(m_out, lo + cfg.n_steps)
    lo = max(0, hi - cfg.n_steps)
    window = np.arange(lo, hi)

    gen = rng.generator(cfg.seed, rng.FOCUS_SCAN)
    fractions = {}
    for name in ("focused", "random"):
        save_mask_csv(os.path.join(out, f"mask_{name}.csv"), masks[name])
        intensities, total = output_intensities(outputs[name])
        q = src.collection_efficiency * (intensities / total)  # each mode's collected probability
        counts = gen.poisson(src.trigger_rate * src.acquisition_time * twofold_probability(q[window], src))
        _write_csv(os.path.join(out, f"scan_{name}.csv"), ("mode_index", "counts"),
                   zip(window.tolist(), counts.tolist()))
        fractions[name] = float(q[cfg.target_a])
    return {
        "focused_fraction": fractions["focused"],
        "random_fraction": fractions["random"],
        "enhancement": enhancement(outputs["focused"], cfg.target_a),
        "scan_window": [int(lo), int(hi)],
        "mean_row_fidelity": float(np.mean(made["fidelities"])),
    }


_PROBABILITIES = ("p00", "p01", "p10", "p11")


def _tomo_stage(cfg: ExperimentConfig, out: str, made: dict) -> dict:
    fit = made["fit"]
    q_a, q_b = mode_probabilities(made["outputs"]["split"], (cfg.target_a, cfg.target_b), cfg.source.collection_efficiency)
    counts = simulate_counts(q_a, q_b, cfg.source, cfg.seed)
    _write_json(os.path.join(out, "counts.json"),
                {**dataclasses.asdict(counts), "config": config_to_dict(cfg)["source"]})

    raw = estimate_state(counts, 0.0)  # the count ratios, before the fringe coherence is known
    state = estimate_state(counts, coherence_from_visibility(fit.visibility, raw.p01, raw.p10))
    _write_csv(os.path.join(out, "probabilities.csv"), ("quantity", "value", "std_error"),
               ((p, getattr(state, p), getattr(state, f"{p}_err")) for p in _PROBABILITIES))

    c_value = concurrence(state.p00, state.p11, state.d_mag)
    threshold = concurrence_threshold(counts.n_T, state.d_mag, state.p00)
    confidence = positivity_confidence(counts.n_ABT, threshold) if threshold >= 0 else 0.0
    c_err = concurrence_error(state, fit.visibility, fit.visibility_err, counts.n_T)
    return {
        "q_a": q_a,
        "q_b": q_b,
        "counts": dataclasses.asdict(counts),
        "probabilities": {name: getattr(state, name) for p in _PROBABILITIES for name in (p, f"{p}_err")},
        "visibility": fit.visibility,
        "visibility_err": fit.visibility_err,
        "d_mag": state.d_mag,
        "d_clamped": state.d_clamped,
        "density_matrix_diag": [state.p00, state.p01, state.p10, state.p11],
        "concurrence": c_value,
        "concurrence_err": c_err,
        "triple_threshold": threshold,
        "confidence": confidence,
        "exceeds_99": bool(confidence > 0.99),
    }


# The tables' functions reach the names harness imports through its globals when called: perfbench/tracing.py wraps them.
# field -> its builder from the estimate's two target rows; no conjugate field is built from a mask's phases
_FIELDS = {
    "focused": lambda cfg, pair: conjugate_fields(pair, (0,), [[1.0]])[0],
    "random": lambda cfg, pair: apply_mask(random_mask(cfg.medium.n_in, cfg.seed)),
    "split": lambda cfg, pair: conjugate_fields(pair, (0, 1), dual_target_weights(pair, 0, 1, [0.0]))[0],
}
# stage -> "check": None or a check of cfg made before phase 1; "fields": the _FIELDS it propagates; "reads": what it
# takes of the fringe scan: (), ("scan",) or ("scan", "fit"); "result": (cfg, out, made) -> its report entry, ``made``
# holding the run's values as ``run`` names them; "files": the files it writes besides RUN_FILES.
STAGES = {
    "focus": dict(check=lambda cfg: rng.check_poisson_mean(cfg.source.trigger_rate * cfg.source.acquisition_time,
                                                           "trigger_rate * acquisition_time"),
                  fields=("focused", "random"), reads=(), result=_focus_stage,
                  files=("mask_focused.csv", "mask_random.csv", "scan_focused.csv", "scan_random.csv")),
    "scan": dict(check=None, fields=(), reads=("scan",), files=("fringes.csv",),
                 result=lambda cfg, out, made: {"n_steps": cfg.n_steps, "total_counts": int(made["scan"].counts.sum())}),
    "fringes": dict(check=None, fields=(), reads=("scan", "fit"), files=("fringes.csv",),
                    result=lambda cfg, out, made: dataclasses.asdict(made["fit"])),
    # the trigger count reads no field, so a run without triggers fails before phase 1
    "tomo": dict(check=lambda cfg: require_triggers(draw_triggers(cfg.source, cfg.seed)[0]), fields=("split",),
                 reads=("scan", "fit"), result=_tomo_stage, files=("fringes.csv", "counts.json", "probabilities.csv")),
}
# scenario -> the stages it runs, in order, on one medium and one estimate: each stage alone, and full
PIPELINES = {**{name: (name,) for name in STAGES}, "full": ("focus", "fringes", "tomo")}
SCENARIOS = tuple(PIPELINES)
RUN_FILES = ("medium.smx", "sm_estimate.smx", "sm_fidelity.csv", "report.json")  # the files every run writes
# scenario -> the names of the files its run writes: RUN_FILES, then its stages' files in stage order
SCENARIO_FILES = {scenario: tuple(dict.fromkeys(itertools.chain(RUN_FILES, *(STAGES[name]["files"] for name in names))))
                  for scenario, names in PIPELINES.items()}


def _calibration_health(fidelities: np.ndarray) -> dict:
    """The min, 5th percentile (nearest rank) and median of the row fidelities, and the number of rows below 0.9.

    Sorted here: np.percentile and np.median import numpy.ma, ~2 MiB of resident memory a run would not otherwise hold.
    """
    ordered, n = np.sort(fidelities).tolist(), len(fidelities)
    return {"row_fidelity_min": ordered[0], "row_fidelity_p5": ordered[math.ceil(0.05 * n) - 1],
            "row_fidelity_median": (ordered[(n - 1) // 2] + ordered[n // 2]) / 2,
            "rows_below_0.9": int(np.count_nonzero(fidelities < 0.9))}


def run(cfg: ExperimentConfig) -> RunReport:
    """Run ``cfg.scenario``: one medium and estimate in two phases (module docstring), its stages, then report.json.

    A scenario of one stage reports that stage's result; ``full`` reports
    one result per stage, keyed by stage name. Every report also holds the
    calibration's row-fidelity health (min, 5th percentile, median, rows
    below 0.9) and the byte size of each other file the run wrote.
    ``report.json`` is emptied first and written last, so it holds a report
    only once every other file of the run is written.
    """
    started = time.perf_counter()
    out = _require_output_dir(cfg)
    medium.write_text(os.path.join(out, "report.json"), [])  # an earlier run's report does not vouch for this run
    m_out, n_in = cfg.medium.m_out, cfg.medium.n_in
    pipeline = [STAGES[name] for name in PIPELINES[cfg.scenario]]
    reads = {read for stage in pipeline for read in stage["reads"]}
    with medium.create_smx(os.path.join(out, "medium.smx"), m_out, n_in) as smx_true, \
            medium.create_smx(os.path.join(out, "sm_estimate.smx"), m_out, n_in) as smx_estimate:
        for stage in pipeline:  # in stage order, so a bad source knob fails before phase 1
            if stage["check"]:
                stage["check"](cfg)
        blocks, (pair_true, pair_estimate) = _target_blocks(cfg)  # phase 1: the one or two blocks that hold the targets
        names = list(dict.fromkeys(name for stage in pipeline for name in stage["fields"]))
        fields = [_FIELDS[name](cfg, pair_estimate) for name in names]
        done = {block: _finish_block((smx_true, smx_estimate), fields, block, *pair) for block, pair in blocks.items()}
        del blocks
        # the fringe scan and its fit read only the target rows, so a bad scan knob fails before the pass
        scan = _scan(cfg, out, pair_true, pair_estimate) if "scan" in reads else None
        fit = fit_visibility(scan) if "fit" in reads else None  # a scan run never fits
        # phase 2: every other block
        fidelities, block_outputs = _row_pass(cfg, (smx_true, smx_estimate), fields, done)
    _write_csv(os.path.join(out, "sm_fidelity.csv"), ("row", "fidelity"), enumerate(fidelities.tolist()))

    made = dict(estimate=pair_estimate, outputs=dict(zip(names, block_outputs)), fidelities=fidelities, scan=scan, fit=fit)
    results = {name: STAGES[name]["result"](cfg, out, made) for name in PIPELINES[cfg.scenario]}
    result = next(iter(results.values())) if len(results) == 1 else results
    _write_json(os.path.join(out, "report.json"), {
        "scenario": cfg.scenario,
        "software_version": __version__,
        "config": config_to_dict(cfg),
        "calibration": _calibration_health(fidelities),
        # sizes, not digests: hashing the SMX files would cost more than the run
        "files": {name: os.path.getsize(os.path.join(out, name)) for name in SCENARIO_FILES[cfg.scenario]
                  if name != "report.json"},
        "result": result,
    })
    return RunReport(config=cfg, result=result, wall_time=time.perf_counter() - started)


# Each runner runs its own scenario, whatever ``cfg.scenario`` says, and reports under that name.
def run_focus(cfg: ExperimentConfig) -> RunReport: return run(dataclasses.replace(cfg, scenario="focus"))
def run_scan(cfg: ExperimentConfig) -> RunReport: return run(dataclasses.replace(cfg, scenario="scan"))
def run_fringes(cfg: ExperimentConfig) -> RunReport: return run(dataclasses.replace(cfg, scenario="fringes"))
def run_tomo(cfg: ExperimentConfig) -> RunReport: return run(dataclasses.replace(cfg, scenario="tomo"))
def run_full(cfg: ExperimentConfig) -> RunReport: return run(dataclasses.replace(cfg, scenario="full"))
