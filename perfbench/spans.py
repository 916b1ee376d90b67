"""Span tracing of slowlight's layers from outside the package.

`Tracer.install` wraps every public function of each layer module wherever
a slowlight module has bound it (slowlight.scenario.dft, slowlight.cli.sio.*,
the package namespace, ...), and `uninstall` restores the originals.  A span
records its layer, name, start, end, parent span and pipeline id; spans stay
in memory until `artifact` writes them out.  Self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

LAYERS = ("signal", "spectral", "medium", "propagation", "analysis", "io", "scenario", "cli")

# Root spans opened by the benchmark itself; their self time is benchmark glue.
BENCH = "bench"

COLUMNS = ("id", "parent", "layer", "name", "start_s", "end_s", "pipeline", "failed", "bytes")
_ID, _PARENT, _LAYER, _NAME, _START, _END, _PIPELINE, _FAILED, _BYTES = range(len(COLUMNS))

SETUP_PIPELINE = -1

COMPENSATE_FUNCTIONS = ("compensate_intensity_spectrum", "recover_waveform", "export_gain_spectrum")


def _file_bytes(args, result) -> int:
    return os.path.getsize(args[0])


def _array_bytes(args, result) -> int:
    """Bytes of the arrays a spectral call reads and returns (computed, not measured)."""
    total = 0
    for obj in (*args, result):
        arr = getattr(obj, "samples", obj)
        total += getattr(arr, "nbytes", 0)
    return total


def _bytes_counter(layer: str, name: str):
    if layer == "io" and name.startswith(("write_", "read_")):
        return _file_bytes
    if layer == "spectral":
        return _array_bytes
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.pipeline = SETUP_PIPELINE
        self._stack: list[int] = []
        self._counted: BaseException | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    def call(self, layer: str, name: str, fn, args, kwargs, count_bytes=None):
        span = [len(self.spans), self._stack[-1] if self._stack else -1, layer, name,
                0.0, 0.0, self.pipeline, False, 0]
        self.spans.append(span)
        self._stack.append(span[_ID])
        span[_START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span[_END] = time.perf_counter()
            # count a failure once, in the span where it was raised
            if exc is not self._counted:
                span[_FAILED] = True
                self._counted = exc
            raise
        finally:
            self._stack.pop()
        span[_END] = time.perf_counter()
        if count_bytes is not None:
            span[_BYTES] = count_bytes(args, result)
        return result

    def wrap(self, layer: str, name: str, fn, count_bytes=None):
        def traced(*args, **kwargs):
            return self.call(layer, name, fn, args, kwargs, count_bytes)

        return functools.update_wrapper(traced, fn)

    def root(self, name: str, fn):
        """Wrap one of the benchmark's own steps as a root span."""
        return self.wrap(BENCH, name, fn)

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"slowlight.{layer}")
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrapper = self.wrap(layer, name, obj, _bytes_counter(layer, name))
                    originals[id(obj)] = (obj, wrapper)
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "slowlight" or n.startswith("slowlight.")]
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(namespace, attr, hit[1])
                    self._patches.append((namespace, attr, value))

    def uninstall(self) -> None:
        for namespace, attr, value in reversed(self._patches):
            setattr(namespace, attr, value)
        self._patches.clear()

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its child spans cover."""
        own = [s[_END] - s[_START] for s in self.spans]
        for s in self.spans:
            if s[_PARENT] >= 0:
                own[s[_PARENT]] -= s[_END] - s[_START]
        return own

    def roots(self) -> list[str]:
        """Per span: the name of the root span it descends from."""
        names: list[str] = []
        for s in self.spans:
            names.append(s[_NAME] if s[_PARENT] < 0 else names[s[_PARENT]])
        return names

    def layer_totals(self) -> dict[str, float]:
        """Per-layer counts, bytes and self times (ms), summed over the run.

        Only spans under a pipeline root count toward the pipeline figures;
        scenario.load_self_ms comes from the traced set-up and
        `<layer>.failed` counts every span that raised.  The caller divides
        by the pipeline count where a metric's unit asks for it.
        """
        own, roots = self.self_times(), self.roots()
        m: dict[str, float] = {}
        for layer in LAYERS:
            m[f"{layer}.calls"] = 0.0
            m[f"{layer}.self_ms"] = 0.0
            m[f"{layer}.failed"] = 0.0
        for key in ("io.write_calls", "io.write_bytes", "io.write_self_ms",
                    "io.read_calls", "io.read_bytes", "io.read_self_ms",
                    "spectral.bytes_computed", "analysis.decompose_self_ms",
                    "analysis.metrics_self_ms", "analysis.compensate_self_ms",
                    "scenario.load_self_ms", "scenario.run_self_ms"):
            m[key] = 0.0
        for s, t, root in zip(self.spans, own, roots):
            layer, name = s[_LAYER], s[_NAME]
            if layer == BENCH:
                continue
            if s[_FAILED]:
                m[f"{layer}.failed"] += 1
            if root == "setup":
                if name == "load_scenario":
                    m["scenario.load_self_ms"] += t * 1e3
                continue
            if root != "pipeline":
                continue
            m[f"{layer}.calls"] += 1
            m[f"{layer}.self_ms"] += t * 1e3
            if layer == "io" and name.startswith(("write_", "read_")):
                kind = name.split("_", 1)[0]
                m[f"io.{kind}_calls"] += 1
                m[f"io.{kind}_bytes"] += s[_BYTES]
                m[f"io.{kind}_self_ms"] += t * 1e3
            elif layer == "spectral":
                m["spectral.bytes_computed"] += s[_BYTES]
            elif layer == "analysis":
                if name == "decompose_components":
                    m["analysis.decompose_self_ms"] += t * 1e3
                elif name == "measure_metrics":
                    m["analysis.metrics_self_ms"] += t * 1e3
                elif name in COMPENSATE_FUNCTIONS:
                    m["analysis.compensate_self_ms"] += t * 1e3
            elif layer == "scenario" and name == "run_scenario":
                m["scenario.run_self_ms"] += t * 1e3
        return m

    def artifact(self, wall_s: float, overhead_frac: float) -> dict:
        """Spans plus the self-time account of the traced wall time.

        `self_s` sums self time per layer, and per root for the benchmark's
        own spans (`bench.setup`, `bench.pipeline`, `bench.check`).
        """
        own = self.self_times()
        self_s: dict[str, float] = {}
        for s, t in zip(self.spans, own):
            key = f"{BENCH}.{s[_NAME]}" if s[_LAYER] == BENCH else s[_LAYER]
            self_s[key] = self_s.get(key, 0.0) + t
        spans = [
            [s[_ID], s[_PARENT], s[_LAYER], s[_NAME], s[_START] - self._origin,
             s[_END] - self._origin, s[_PIPELINE], s[_FAILED], s[_BYTES]]
            for s in self.spans
        ]
        return {
            "wall_s": wall_s,
            "self_s": self_s,
            "unattributed_s": wall_s - sum(self_s.values()),
            "overhead_frac": overhead_frac,
            "columns": list(COLUMNS),
            "spans": spans,
        }
