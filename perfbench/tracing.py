"""In-memory call spans for the benchmark's traced runs.

The program's files are left untouched. Each consumer module (``harness``,
``tomography``, ``quantum``, ``calibration``) resolves the names it imports
from other modules -- ``propagate``, ``measure_sm``, ``conjugate_mask`` ... --
through its own namespace, so replacing those attributes with a wrapper puts
a span on every call across a layer boundary. The entry points the benchmark
itself calls are wrapped in their defining module. ``rng``, ``errors`` and
``cli`` are not wrapped: they do no measurable work.

A span is ``[id, op, parent, name, layer, start, end]``. ``op`` is the op
index the span belongs to, or ``None`` for set-up work. A span's self time
is its duration minus the durations of its direct children (calls are
nested and single-threaded, so children never overlap).
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("medium", "calibration", "slm", "quantum", "tomography", "harness")
CONSUMERS = ("harness", "tomography", "quantum", "calibration")
ENTRY_POINTS = {
    "harness": ("load_config", "run_full", "run_tomo"),
    "medium": ("generate_medium",),
    "calibration": ("measure_sm",),
    "tomography": ("scan_fringes", "fit_visibility"),
}
ROOT = "bench.op"


def _count_measure(counts, args):
    s_true, cfg = args["s_true"], args["cfg"]
    if not cfg.noiseless:
        counts["calibration.poisson_samples"] += cfg.phase_steps * s_true.m_out * s_true.n_in


def _count_scan(counts, args):
    n_steps, m_out, n_in = args["n_steps"], args["s_true"].m_out, args["s_true"].n_in
    counts["tomography.scan_macs"] += n_steps * m_out * n_in
    counts["tomography.amplitudes_read"] += 2 * n_steps
    counts["tomography.amplitudes_computed"] += n_steps * m_out


def _count_smx(counts, args):
    counts["medium.smx_bytes_written"] += os.path.getsize(args["path"])


# exact work counts, taken from the arguments of the call that does the work
HOOKS = {
    "calibration.measure_sm": _count_measure,
    "tomography.scan_fringes": _count_scan,
    "medium.save_smx": _count_smx,
}


class Tracer:
    """Records spans and work counts while installed; restores every name on uninstall."""

    def __init__(self):
        self.modules = {name: importlib.import_module(f"specklewalk.{name}") for name in LAYERS}
        self.spans = []
        self.counts = Counter()  # work in timed ops; set-up work is not counted
        self.calibration_peaks = []  # (tracemalloc peak bytes, result bytes) per measure_sm call
        self._stack = []
        self._op = None
        self._saved = []

    def _targets(self):
        for consumer in CONSUMERS:
            module = self.modules[consumer]
            for name, obj in sorted(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if layer in LAYERS and layer != consumer:
                    yield module, name, obj, layer
        for layer, names in ENTRY_POINTS.items():
            module = self.modules[layer]
            for name in names:
                yield module, name, getattr(module, name), layer

    def _install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for module, name, fn, layer in list(self._targets()):
            self._saved.append((module, name, fn))
            setattr(module, name, self._wrap(fn, layer))

    def _uninstall(self) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    @contextmanager
    def installed(self, op=None):
        """Trace the calls made inside the block; ``op`` None marks set-up work.

        For an op, the block runs inside a root span, which is yielded.
        """
        self._op = op
        self._install()
        try:
            if op is None:
                yield None
            else:
                with self._span(ROOT, "bench") as root:
                    yield root
        finally:
            self._uninstall()
            self._stack.clear()
            self._op = None

    @contextmanager
    def _span(self, name, layer):
        span = [len(self.spans), self._op, self._stack[-1] if self._stack else None, name, layer, 0.0, 0.0]
        self.spans.append(span)
        self._stack.append(span[0])
        span[5] = time.perf_counter()
        try:
            yield span
        finally:
            span[6] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, layer):
        name = f"{layer}.{fn.__name__}"
        hook = HOOKS.get(name)
        signature = inspect.signature(fn)
        traced_memory = name == "calibration.measure_sm"

        def wrapper(*args, **kwargs):
            if traced_memory:
                tracemalloc.start()
            try:
                with self._span(name, layer):
                    result = fn(*args, **kwargs)
                if traced_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    self.calibration_peaks.append((peak, result.matrix.matrix.nbytes))
            finally:
                if traced_memory:
                    tracemalloc.stop()
            if hook is not None and self._op is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self.counts, bound.arguments)
            return result

        return wrapper

    def self_times(self):
        """Self seconds per (op is None, span name), summed over spans."""
        child_time = defaultdict(float)
        for _, _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = defaultdict(float)
        for span_id, op, _, name, _, start, end in self.spans:
            totals[(op is None, name)] += (end - start) - child_time[span_id]
        return totals

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "op", "parent", "name", "layer", "start", "end"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)
