"""The benchmark's tracer still sees the harness: spans, self times and a clean uninstall.

``perfbench/tracing.py`` wraps the names each layer imports from the others
and the benchmark's entry points. A harness change that hides a call from
it, or leaves a wrapper behind, fails here rather than in a benchmark run.
"""

import importlib.util
import os

import pytest

from specklewalk import CalibrationConfig, ExperimentConfig, MediumConfig, harness

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py")


def load_tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_tracer_spans_run_tomo_and_restores_every_name(tmp_path):
    tracer = load_tracer_class()()
    before = {name: dict(vars(module)) for name, module in tracer.modules.items()}
    cfg = ExperimentConfig(scenario="full", medium=MediumConfig(n_in=32, m_out=64, seed=3),
                           calibration=CalibrationConfig(photons_per_measurement=1e4), target_a=5, target_b=40,
                           output_dir=str(tmp_path), seed=4)

    with tracer.installed(op=0) as root:
        harness.run_tomo(cfg)

    names = {span[3] for span in tracer.spans}
    assert {"harness.run_tomo", "calibration.measure_sm", "tomography.scan_fringes",
            "quantum.mode_probabilities"} <= names
    self_times = tracer.self_times()
    assert min(self_times.values()) >= 0.0  # every child span lies inside its parent
    assert sum(self_times.values()) == pytest.approx(root[6] - root[5], rel=1e-9, abs=1e-12)
    assert {name: dict(vars(module)) for name, module in tracer.modules.items()} == before


def test_tracer_sees_the_calibration_of_targets_in_two_row_blocks(tmp_path):
    tracer = load_tracer_class()()
    cfg = ExperimentConfig(scenario="full", medium=MediumConfig(n_in=32, m_out=192, seed=3),
                           calibration=CalibrationConfig(photons_per_measurement=1e4), target_a=5, target_b=150,
                           output_dir=str(tmp_path), seed=4)

    with tracer.installed(op=0):
        harness.run_full(cfg)

    measured = [span for span in tracer.spans if span[3] == "calibration.measure_sm"]
    assert len(measured) == 2  # one per target block
    assert tracer.calibration_peaks  # perfbench/run.py reports their largest
