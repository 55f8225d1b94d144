"""The benchmark's workloads and the checks on their outputs.

Each workload derives every input from the workload seed: op ``i`` uses the
master seed ``seed * SEED_STRIDE + i``. One set-up repetition builds the
configuration (and, for ``scan_sweep``, the medium and its calibration) and
runs op 0 as an untimed warm-up. Checks run outside every timed region.

The acceptance bands come from the paper's figures: ~7% focused fraction,
V ~= 0.78 at the tuned phase jitter, and >= 90% of Monte Carlo seeds
certified. They are bands, not stored digests, so a deliberate change of
output bytes does not fail the benchmark.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os

import numpy as np

from specklewalk import calibration, harness, medium, tomography

SEED_STRIDE = 1_000_000


def op_seed(seed: int, index: int) -> int:
    return seed * SEED_STRIDE + index


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class HarnessWorkload:
    """One op = ``load_config`` + one ``run_*`` scenario into a fixed output directory.

    The directory is the same for every op, because ``report.json`` echoes
    ``output_dir`` and byte comparisons need it fixed.
    """

    runner = ""
    config = ""
    files = ()

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir

    def setup(self):
        return self.op(0)

    def setup_check(self) -> list:
        return []

    def op(self, index: int):
        cfg = harness.load_config(self.config, seed=op_seed(self.seed, index), output_dir=self.out_dir)
        return getattr(harness, self.runner)(cfg)

    def fingerprint(self):
        """sha256 of every output file, to compare two runs of one seed."""
        return {name: _sha256(os.path.join(self.out_dir, name)) for name in sorted(os.listdir(self.out_dir))}

    def written(self) -> dict:
        """Files and bytes the last op left in the output directory."""
        sizes = {name: os.path.getsize(os.path.join(self.out_dir, name)) for name in os.listdir(self.out_dir)}
        return {"files": len(sizes), "bytes": sum(sizes.values()),
                "csv_bytes": sum(size for name, size in sizes.items() if name.endswith(".csv"))}

    def check(self, index: int, outcome) -> list:
        present = set(os.listdir(self.out_dir))
        if present != set(self.files):
            return [f"op {index}: output files {sorted(present)} != expected {sorted(self.files)}"]
        with open(os.path.join(self.out_dir, "report.json"), encoding="utf-8") as fh:
            written = json.load(fh)
        if written["config"]["run"]["seed"] != op_seed(self.seed, index):
            return [f"op {index}: report.json holds seed {written['config']['run']['seed']}"]
        return self.check_result(index, written["result"])

    def check_result(self, index: int, result: dict) -> list:
        raise NotImplementedError

    def finish(self) -> list:
        return []


def _check_tomo(index: int, tomo: dict) -> list:
    problems = []
    if not 0.0 <= tomo["visibility"] <= 1.0:
        problems.append(f"op {index}: visibility {tomo['visibility']} outside [0, 1]")
    if not (math.isfinite(tomo["concurrence"]) and tomo["concurrence"] >= 0.0):
        problems.append(f"op {index}: concurrence {tomo['concurrence']} is not a finite nonnegative number")
    if not 0.0 <= tomo["confidence"] <= 1.0:
        problems.append(f"op {index}: confidence {tomo['confidence']} outside [0, 1]")
    return problems


class PaperFull(HarnessWorkload):
    runner = "run_full"
    config = os.path.join("configs", "paper.ini")
    files = ("medium.smx", "sm_estimate.smx", "sm_fidelity.csv", "mask_focused.csv", "mask_random.csv",
             "scan_focused.csv", "scan_random.csv", "fringes.csv", "counts.json", "probabilities.csv",
             "report.json")

    def check_result(self, index, result):
        fraction = result["focus"]["focused_fraction"]
        problems = _check_tomo(index, result["tomo"])
        if not abs(fraction - 0.07) <= 0.02:
            problems.append(f"op {index}: focused fraction {fraction:.4f} outside 0.07 +- 0.02")
        return problems


class McTomo(HarnessWorkload):
    runner = "run_tomo"
    config = os.path.join("configs", "small.ini")
    files = ("medium.smx", "sm_estimate.smx", "sm_fidelity.csv", "fringes.csv", "counts.json",
             "probabilities.csv", "report.json")

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.certified = {}

    def check_result(self, index, result):
        self.certified[index] = result["concurrence"] > 0.0 and result["confidence"] > 0.99
        return _check_tomo(index, result)

    def finish(self):
        share = sum(self.certified.values()) / max(len(self.certified), 1)
        if share < 0.9:
            return [f"{share:.3f} of {len(self.certified)} seeds certified C > 0 at > 99% confidence (need >= 0.9)"]
        return []


class ScanSweep:
    """Calibrate once without noise, then one op = ``scan_fringes`` + ``fit_visibility``.

    Ops cycle through the phase-jitter ladder first and the target pairs
    second, so every pair meets every ``sigma_phi``.
    """

    config = os.path.join("configs", "paper.ini")
    pairs = ((96, 288), (17, 3001), (1024, 2048), (4000, 5))
    sigmas = (0.0, 0.4, 0.7, 1.0)

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        self.visibilities = {sigma: {} for sigma in self.sigmas}
        self.last = None

    def setup(self):
        self.cfg = harness.load_config(self.config, seed=op_seed(self.seed, 0), output_dir=self.out_dir)
        self.sm = medium.generate_medium(self.cfg.medium)
        noiseless = dataclasses.replace(self.cfg.calibration, photons_per_measurement=None)
        self.estimate = calibration.measure_sm(self.sm, noiseless)
        return self.op(0)

    def setup_check(self) -> list:
        worst = float(calibration.sm_fidelity(self.sm, self.estimate).min())
        if worst < 1.0 - 1e-9:
            return [f"noiseless calibration: worst row fidelity {worst!r} < 1 - 1e-9"]
        return []

    def op(self, index: int):
        target_a, target_b = self.pairs[(index // len(self.sigmas)) % len(self.pairs)]
        sigma = self.sigmas[index % len(self.sigmas)]
        scan = tomography.scan_fringes(
            self.sm, self.estimate.matrix, target_a, target_b,
            n_steps=self.cfg.n_steps, counts_per_step=self.cfg.counts_per_step,
            seed=op_seed(self.seed, index), sigma_phi=sigma, sampling="poisson",
        )
        fit = tomography.fit_visibility(scan)
        self.last = (scan, fit)
        return sigma, fit

    def fingerprint(self):
        scan, fit = self.last
        return scan.counts.tobytes(), dataclasses.astuple(fit)

    def written(self) -> dict:
        return {}

    def check(self, index: int, outcome) -> list:
        sigma, fit = outcome
        v = fit.visibility
        self.visibilities[sigma][index] = v
        # With a noiseless calibration the phase jitter is the main loss, V ~= exp(-sigma^2 / 2).
        # The fit moves V up to ~0.045 off that (the total power varies over the scan) and
        # Poisson sampling adds ~0.007 of noise, so 0.1 flags only a broken scan.
        expected = math.exp(-0.5 * sigma ** 2)
        if not (0.0 <= v <= 1.0 and abs(v - expected) <= 0.1):
            return [f"op {index}: visibility {v:.4f} at sigma_phi = {sigma} is not within 0.1 of {expected:.4f}"]
        return []

    def finish(self) -> list:
        means = {sigma: float(np.mean(list(vs.values()))) for sigma, vs in self.visibilities.items() if vs}
        if len(means) < len(self.sigmas):
            return [f"ops covered only sigma_phi {sorted(means)} of {self.sigmas}"]
        problems = []
        if means[0.0] < 0.99:
            problems.append(f"mean V {means[0.0]:.4f} < 0.99 at sigma_phi = 0")
        if abs(means[0.7] - 0.78) > 0.04:
            problems.append(f"mean V {means[0.7]:.4f} outside 0.78 +- 0.04 at sigma_phi = 0.7")
        ladder = [means[sigma] for sigma in self.sigmas]
        if not all(a > b for a, b in zip(ladder, ladder[1:])):
            problems.append(f"mean V {ladder} does not fall strictly with sigma_phi {self.sigmas}")
        return problems


WORKLOADS = {"paper_full": PaperFull, "mc_tomo": McTomo, "scan_sweep": ScanSweep}
