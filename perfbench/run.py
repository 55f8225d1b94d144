"""Benchmark of the specklewalk simulator: one workload per run, closed loop, one client.

Run from the root of a specklewalk checkout (the program is imported from
``src/``; nothing needs to be installed):

    python3 perfbench/run.py --workload paper_full --seed 1 --seconds 20 --trace 0

``--trace 0`` times ops with nothing attached and reports the end-to-end
metrics. ``--trace 1`` alternates untraced and traced ops on the same seeds,
checks that both leave identical outputs, and reports the per-layer metrics;
the tracing overhead is the traced mean op time minus the untraced one.
The last line of standard output is the result as one JSON object; the
full record, with the environment, is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict

from tracing import LAYERS, Tracer

OUT = ".perfbench_out"
SETUP_REPS = 3
MIB = float(1 << 20)
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def import_program() -> float:
    """Import specklewalk from ./src and return the seconds the import took."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "specklewalk", "__init__.py")):
        raise SystemExit("perfbench: src/specklewalk not found; run from the root of a specklewalk checkout")
    sys.path.insert(0, src)
    started = time.perf_counter()
    import specklewalk
    elapsed = time.perf_counter() - started
    if os.path.dirname(os.path.abspath(specklewalk.__file__)) != os.path.join(src, "specklewalk"):
        raise SystemExit(f"perfbench: imported specklewalk from {specklewalk.__file__}, not from {src}")
    return elapsed


def _blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None when that cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and "numpy" in line})
        for path in libs:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    return int(getattr(lib, symbol)())
    except OSError:
        pass
    return None


def _git_commit():
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {key: os.environ[key] for key in BLAS_THREAD_ENV if key in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "load_model": "closed loop, one client, BLAS threads <= nproc",
    }


def run_op(workload, index, tracer):
    """Run op ``index``; return (seconds, outcome). A traced op is timed by its root span."""
    if tracer is None:
        started = time.perf_counter()
        outcome = workload.op(index)
        return time.perf_counter() - started, outcome
    with tracer.installed(op=index) as root:
        outcome = workload.op(index)
    return root[6] - root[5], outcome


def set_up(workload, tracer, problems):
    """Repeat the set-up on the first seed; every repetition must leave the same outputs."""
    seconds, prints = [], []
    for rep in range(2 if tracer else SETUP_REPS):
        started = time.perf_counter()
        if tracer is not None and rep == 1:
            with tracer.installed():
                outcome = workload.setup()
        else:
            outcome = workload.setup()
        seconds.append(time.perf_counter() - started)
        problems += workload.setup_check() + workload.check(0, outcome)
        prints.append(workload.fingerprint())
    if any(p != prints[0] for p in prints[1:]):
        what = "traced and untraced set-up" if tracer else "set-up repetitions"
        problems.append(f"{what} on the first seed left different outputs")
    return seconds


def timed_loop(workload, seconds, tracer, problems):
    """Closed loop for ``seconds``: each op starts when the previous one and its check are done."""
    times, traced_times = [], []
    written = Counter()
    attempted = failed = 0
    started = time.perf_counter()
    index = 0
    while time.perf_counter() - started < seconds:
        untraced_print = None
        for traced in ((False, True) if tracer else (False,)):
            attempted += 1
            try:
                elapsed, outcome = run_op(workload, index, tracer if traced else None)
                bad = workload.check(index, outcome)
            except Exception as exc:  # an op that raises is a failed op; the loop goes on
                failed += 1
                problems.append(f"op {index}: {type(exc).__name__}: {exc}")
                continue
            (traced_times if traced else times).append(elapsed)
            if tracer is not None:
                fingerprint = workload.fingerprint()
                if not traced:
                    untraced_print = fingerprint
                else:
                    written.update(workload.written())
                    if untraced_print is not None and fingerprint != untraced_print:
                        bad = bad + [f"op {index}: traced op left other outputs than the untraced op"]
            if bad:
                failed += 1
                problems.extend(bad)
        index += 1
    return times, traced_times, written, attempted, failed


def end_to_end_metrics(setup_s, times):
    return {
        "setup_s": (setup_s, "s"),
        "op_s_p50": (statistics.median(times), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def layer_metrics(tracer, times, traced_times, written):
    """Per-op self times and work counts of the traced ops (set-up spans only where named)."""
    n = len(traced_times)
    self_s = tracer.self_times()
    calls = Counter(span[3] for span in tracer.spans if span[1] is not None)
    layer_s = defaultdict(float)
    for (in_setup, name), value in self_s.items():
        if not in_setup:
            layer_s[name.partition(".")[0]] += value
    peak, result_bytes = max(tracer.calibration_peaks)
    counts = tracer.counts

    def per_op(name):
        return self_s.get((False, name), 0.0) / n

    harness_self = per_op("harness.run_full") + per_op("harness.run_tomo")
    traced_mean = statistics.fmean(traced_times)
    metrics = {
        "medium.generate_s": (per_op("medium.generate_medium"), "s"),
        "medium.save_smx_s": (per_op("medium.save_smx"), "s"),
        "medium.smx_mb_written": (counts["medium.smx_bytes_written"] / MIB / n, "MiB"),
        "medium.propagate_calls": (calls["medium.propagate"] / n, "count"),
        "medium.propagate_s": (per_op("medium.propagate"), "s"),
        "calibration.measure_s": (per_op("calibration.measure_sm"), "s"),
        "calibration.measure_peak_mb": (peak / MIB, "MiB"),
        "calibration.peak_over_result": (peak / result_bytes, "ratio"),
        "calibration.poisson_samples": (counts["calibration.poisson_samples"] / n, "count"),
        "calibration.fidelity_s": (per_op("calibration.sm_fidelity"), "s"),
        "slm.conjugate_mask_calls": (calls["slm.conjugate_mask"] / n, "count"),
        "slm.conjugate_mask_s": (per_op("slm.conjugate_mask"), "s"),
        "slm.dual_target_spec_s": (per_op("slm.dual_target_spec"), "s"),
        "slm.save_mask_csv_s": (per_op("slm.save_mask_csv"), "s"),
        "quantum.mode_probabilities_s": (per_op("quantum.mode_probabilities"), "s"),
        "quantum.simulate_counts_s": (per_op("quantum.simulate_counts"), "s"),
        "tomography.scan_s": (per_op("tomography.scan_fringes"), "s"),
        "tomography.fit_s": (per_op("tomography.fit_visibility"), "s"),
        "tomography.scan_macs": (counts["tomography.scan_macs"] / n, "count"),
        "tomography.scan_useful_ratio": (counts["tomography.amplitudes_read"]
                                         / counts["tomography.amplitudes_computed"], "ratio"),
        "harness.self_s": (harness_self, "s"),
        "harness.load_config_s": (per_op("harness.load_config"), "s"),
        "harness.files_written": (written["files"] / n, "count"),
        "harness.bytes_written": (written["bytes"] / n, "B"),
        "harness.csv_bytes_written": (written["csv_bytes"] / n, "B"),
        "setup.medium.generate_s": (self_s.get((True, "medium.generate_medium"), 0.0), "s"),
        "setup.calibration.measure_s": (self_s.get((True, "calibration.measure_sm"), 0.0), "s"),
        "trace.op_s": (traced_mean, "s"),
        "trace.layers_s": (sum(layer_s[layer] for layer in LAYERS) / n, "s"),
        "trace.overhead_s": (traced_mean - statistics.fmean(times), "s"),
    }
    for layer in LAYERS[:-1]:
        metrics[f"{layer}.self_s"] = (layer_s[layer] / n, "s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_program()
    from workloads import WORKLOADS  # imports the program, so only after import_program

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    out_dir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir)
    workload = WORKLOADS[args.workload](args.seed, out_dir)
    tracer = Tracer() if args.trace else None
    problems = []
    try:
        setup_times = set_up(workload, tracer, problems)
        times, traced_times, written, attempted, failed = timed_loop(workload, args.seconds, tracer, problems)
        problems += workload.finish()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if not times or (tracer is not None and not traced_times):
        raise SystemExit(f"perfbench: no op completed; first problems: {problems[:5]}")

    if tracer is None:
        metrics = end_to_end_metrics(import_s + statistics.median(setup_times), times)
    else:
        metrics = layer_metrics(tracer, times, traced_times, written)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "samples": len(times),
        "failed_ratio": failed / attempted,
        "problems": problems[:20],
        "import_s": import_s,
        "setup_reps_s": setup_times,
        "op_s": times,
    }
    if len(times) >= 10:
        p90 = statistics.quantiles(times, n=10)[-1]
        beyond = sum(t > p90 for t in times)
        if beyond >= 10:  # a percentile is reported only with ten samples beyond it
            detail["op_s_p90"] = p90
            detail["samples_beyond_p90"] = beyond
    if tracer is not None:
        detail["traced_op_s"] = traced_times
        layers_s, op_s = metrics["trace.layers_s"][0], metrics["trace.op_s"][0]
        detail["self_times_add_up"] = abs(op_s - layers_s) <= abs(metrics["trace.overhead_s"][0])
        tracer.dump(os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.json"))
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {attempted} ops attempted, "
          f"{failed} failed, correct={result['correct']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    for problem in problems[:20]:
        print(f"  problem: {problem}")
    print(json.dumps({key: value for key, value in detail.items() if key not in ("op_s", "traced_op_s")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
