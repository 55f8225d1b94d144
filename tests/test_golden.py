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

``full`` at seed 1 is also rerun in a child process under OpenBLAS's
Haswell and Zen kernels (``OPENBLAS_CORETYPE``), which any x86-64 host with
AVX2 can run, whatever kernels it picks by default; both runs must give the
stored digests (skipped on other hosts). It is rerun once more with numpy's
dispatch targets above ``X86_V3`` disabled (``NPY_DISABLE_CPU_FEATURES``),
alone and under the Haswell kernels, and must again give every stored
digest (skipped on a host with no such target). No file is exempt: a
mask holds the ``math.atan2`` phases of its ``slm.conjugate_fields``
phasors, which are built with ``+ - * /`` and ``sqrt`` only, so it does
not rest on ``np.angle``, whose loops round differently per target.
"""

import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import sys

import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

import specklewalk
from specklewalk import load_config, run, run_full

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
CONFIG = os.path.join(CONFIGS, "small.ini")
X86_64_AVX2 = platform.machine().lower() in ("x86_64", "amd64") and bool(__cpu_features__.get("AVX2"))
# the dispatch targets above x86-64-v3 that this host runs; numpy refuses to disable a name it does not dispatch
ABOVE_V3 = [name for name in __cpu_dispatch__[__cpu_dispatch__.index("X86_V3") + 1:] if __cpu_features__.get(name)] \
    if "X86_V3" in __cpu_dispatch__ else []


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


def child_digests(extra_env: dict, cwd) -> dict:
    """The seed-1 ``full`` digests on small.ini from a child process with ``extra_env`` added to its environment."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(specklewalk.__file__)))
    env = {**os.environ, **extra_env, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = ("import hashlib, json, os\n"
            "from specklewalk import load_config, run_full\n"
            f"run_full(load_config({CONFIG!r}, seed=1, output_dir='.'))\n"
            "print(json.dumps({name: hashlib.sha256(open(name, 'rb').read()).hexdigest() for name in os.listdir('.')}))\n")
    child = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def seed1_digests() -> dict:
    with open(os.path.join(GOLDEN_DIR, "full_small.json"), encoding="utf-8") as fh:
        return json.load(fh)["seed1"]


@pytest.mark.skipif(not X86_64_AVX2, reason="OpenBLAS's Haswell and Zen kernels need an x86-64 host with AVX2")
@pytest.mark.parametrize("coretype", ["Haswell", "Zen"])
def test_full_small_output_bytes_hold_on_other_openblas_kernels(coretype, tmp_path):
    assert child_digests({"OPENBLAS_CORETYPE": coretype}, tmp_path) == seed1_digests()


@pytest.mark.skipif(not ABOVE_V3, reason="numpy dispatches no target above X86_V3 on this host")
@pytest.mark.parametrize("coretype", [None, "Haswell"], ids=["default-kernels", "Haswell"])
def test_full_small_output_bytes_hold_below_numpy_dispatch_above_x86_v3(coretype, tmp_path):
    if coretype and not X86_64_AVX2:
        pytest.skip("OpenBLAS's Haswell kernels need an x86-64 host with AVX2")
    env = {"NPY_DISABLE_CPU_FEATURES": " ".join(ABOVE_V3), **({"OPENBLAS_CORETYPE": coretype} if coretype else {})}
    assert child_digests(env, tmp_path) == seed1_digests()
