"""Pins the sha256 of every output file of each scenario on configs/small.ini.

``full`` is pinned at seeds 1 and 2, at seed 1 noiseless, and at seed 1 with
``m_out = 1000`` (noisy and noiseless), whose last row block holds 40 of
``ROW_BLOCK`` = 64 rows. Three more seed-1 ``full`` cases move the targets:
both in one row block (5, 40), ``target_b`` = 990 in that partial last
block, and ``target_a`` after ``target_b`` (288, 96)
(tests/golden/full_small.json); ``focus``, ``scan``,
``fringes`` and ``tomo`` at seed 1 (tests/golden/scenarios_small.json). ``full`` on
configs/paper.ini (1024 x 4096) at its own seed 12345 is pinned too
(tests/golden/full_paper.json); that run writes 128 MiB. Any change of output bytes
fails here. A deliberate change regenerates the golden file from the JSON
this test prints on failure, bumps the version, and says why in CHANGES.md.
"""

import dataclasses
import hashlib
import json
import os

from specklewalk import load_config, run, run_full

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
CONFIG = os.path.join(CONFIGS, "small.ini")


def output_digests(runner, cfg) -> dict:
    os.mkdir(cfg.output_dir)
    runner(cfg)
    digests = {}
    for name in sorted(os.listdir(cfg.output_dir)):
        with open(os.path.join(cfg.output_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def noiseless(cfg):
    return dataclasses.replace(cfg, calibration=dataclasses.replace(cfg.calibration, photons_per_measurement=None))


def golden_cases():
    cases = {f"seed{seed}": load_config(CONFIG, seed=seed) for seed in (1, 2)}
    cases["seed1-noiseless"] = noiseless(cases["seed1"])
    # a partial last row block: 1000 = 15 * 64 + 40
    seed1 = cases["seed1"]
    cases["seed1-m1000"] = dataclasses.replace(seed1, medium=dataclasses.replace(seed1.medium, m_out=1000))
    cases["seed1-m1000-noiseless"] = noiseless(cases["seed1-m1000"])
    # targets in one row block, a target in the partial last block, and target_a after target_b
    cases["seed1-targets5-40"] = dataclasses.replace(seed1, target_a=5, target_b=40)
    cases["seed1-m1000-target990"] = dataclasses.replace(cases["seed1-m1000"], target_b=990)
    cases["seed1-targets288-96"] = dataclasses.replace(seed1, target_a=288, target_b=96)
    return cases


def assert_golden(filename, runner, cases, tmp_path):
    actual = {name: output_digests(runner, dataclasses.replace(cfg, output_dir=str(tmp_path / name)))
              for name, cfg in cases.items()}
    with open(os.path.join(GOLDEN_DIR, filename), encoding="utf-8") as fh:
        golden = json.load(fh)
    assert actual == golden, "output bytes changed; actual digests:\n" + json.dumps(actual, indent=2, sort_keys=True)


def test_full_small_output_bytes_match_golden_digests(tmp_path):
    assert_golden("full_small.json", run_full, golden_cases(), tmp_path)


def test_scenario_output_bytes_match_golden_digests(tmp_path):
    cases = {f"{scenario}-seed1": load_config(CONFIG, scenario=scenario, seed=1)
             for scenario in ("focus", "scan", "fringes", "tomo")}
    assert_golden("scenarios_small.json", run, cases, tmp_path)


def test_full_paper_output_bytes_match_golden_digests(tmp_path):
    assert_golden("full_paper.json", run_full, {"seed12345": load_config(os.path.join(CONFIGS, "paper.ini"))}, tmp_path)
