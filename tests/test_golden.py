"""Pins the sha256 of every output file of ``full`` on configs/small.ini.

Any change of output bytes fails here. A deliberate change regenerates
tests/golden/full_small.json from the JSON this test prints on failure,
bumps the version, and says why in CHANGES.md.
"""

import dataclasses
import hashlib
import json
import os

from specklewalk import load_config, run_full

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "full_small.json")
CONFIG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs", "small.ini")
# report.json echoes output_dir, so every case runs into the same relative directory
OUT = "golden_out"


def output_digests(cfg) -> dict:
    os.mkdir(OUT)
    run_full(cfg)
    digests = {}
    for name in sorted(os.listdir(OUT)):
        with open(os.path.join(OUT, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
        os.remove(os.path.join(OUT, name))
    os.rmdir(OUT)
    return digests


def golden_cases():
    cases = {f"seed{seed}": load_config(CONFIG, seed=seed, output_dir=OUT) for seed in (1, 2)}
    noisy = cases["seed1"]
    cases["seed1-noiseless"] = dataclasses.replace(
        noisy, calibration=dataclasses.replace(noisy.calibration, photons_per_measurement=None))
    return cases


def test_full_small_output_bytes_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    actual = {name: output_digests(cfg) for name, cfg in golden_cases().items()}
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert actual == golden, "output bytes changed; actual digests:\n" + json.dumps(actual, indent=2, sort_keys=True)
