"""Span tracing of lanslab from outside the package.

Two kinds of wrappers feed one in-memory span recorder:

* FFT entry points of ``numpy.fft`` and ``scipy.fft`` are replaced before
  ``lanslab`` is imported, so a module that binds them by name at import
  time still calls the counting wrapper.  Each call is counted in scalar
  transforms: one n-D transform of one component over the transformed
  axes counts as 1, whatever the entry point (``fftn``, ``rfftn``,
  ``scipy.fft``).
* Public lanslab functions are replaced in every ``lanslab`` module
  namespace that binds them, because modules import them by name.

A span is (id, parent id, name, start, end).  A layer's self time is the
sum over its spans of duration minus the time covered by child spans.
Calls are strictly nested (lanslab is single-threaded), so one stack
tracks the open spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# FFT entry points: name -> (kind, default transformed axes, real-space side)
# kind "complex" or "real"; side "in" means the real-space grid is the input
# (forward real transforms), "out" the output.
_FFT_ENTRY_POINTS = {
    "fft": ("complex", "1d", "out"),
    "ifft": ("complex", "1d", "out"),
    "fft2": ("complex", "2d", "out"),
    "ifft2": ("complex", "2d", "out"),
    "fftn": ("complex", "nd", "out"),
    "ifftn": ("complex", "nd", "out"),
    "rfft": ("real", "1d", "in"),
    "irfft": ("real", "1d", "out"),
    "rfft2": ("real", "2d", "in"),
    "irfft2": ("real", "2d", "out"),
    "rfftn": ("real", "nd", "in"),
    "irfftn": ("real", "nd", "out"),
    "hfft": ("real", "1d", "out"),
    "ihfft": ("real", "1d", "in"),
}

FFT_LAYER = "spectral.fft"
ROOT_LAYER = "cli.main"


def _fft_axes(layout: str, ndim: int, args: tuple, kwargs: dict) -> tuple:
    """Transformed axes of one FFT call, normalized to non-negative ints."""
    if layout == "1d":
        axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
        axes = (axis,)
    else:
        axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
        if axes is None:
            if layout == "2d":
                axes = (-2, -1)
            else:
                s = kwargs.get("s", args[1] if len(args) > 1 else None)
                axes = tuple(range(ndim)) if s is None else tuple(range(-len(s), 0))
    return tuple(a % ndim for a in axes)


def fft_work(name: str, args: tuple, kwargs: dict, result) -> tuple:
    """(scalar transforms, grid points per transform) of one FFT call."""
    kind, layout, side = _FFT_ENTRY_POINTS[name]
    real_space = np.shape(args[0]) if side == "in" else np.shape(result)
    axes = _fft_axes(layout, len(real_space), args, kwargs)
    points = int(np.prod([real_space[a] for a in axes]))
    total = int(np.prod(real_space))
    return (total // points if points else 0), points


class Tracer:
    """In-memory span recorder with per-layer calls, self time and counters.

    Wrapping is installed once; ``enabled`` switches recording on and off,
    and a disabled wrapper is a plain pass-through.
    """

    def __init__(self):
        self.enabled = False
        self.spans: list = []
        self._stack: list = []  # [span id, name, start, child seconds]
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.counters: dict = defaultdict(int)
        self._restore: list = []  # (owner, attribute, original)
        self._origin = time.perf_counter()

    # ------------------------------------------------------------ spans

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name; returns fn's result."""
        start = time.perf_counter()
        span_id = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(None)  # reserve the id so children number after it
        self._stack.append([span_id, name, start, 0.0])
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            _, _, _, child = self._stack.pop()
            duration = end - start
            self.spans[span_id] = (span_id, parent, name, start - self._origin, end - self._origin)
            self.calls[name] += 1
            self.self_s[name] += duration - child
            if self._stack:
                self._stack[-1][3] += duration

    def _inside(self, name: str) -> bool:
        return bool(self._stack) and self._stack[-1][1] == name

    def wrap(self, fn, name, count=None):
        """Wrapper recording a span per call.

        name is a layer name or a callable (args, kwargs) -> layer name.
        count(args, kwargs, result) -> {counter: increment} runs after a
        successful call.  A call made directly inside a span of the same
        layer (e.g. one ensemble generator calling another) is part of that
        span, not a new one.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            layer = name(args, kwargs) if callable(name) else name
            if self._inside(layer):
                return fn(*args, **kwargs)
            result = self.span(layer, fn, *args, **kwargs)
            if count is not None:
                for key, inc in count(args, kwargs, result).items():
                    self.counters[key] += inc
            return result

        return wrapper

    def _replace(self, owner, attr: str, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        """Put every replaced attribute back, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ FFT

    def install_fft(self):
        """Wrap the numpy.fft (and scipy.fft, if importable) entry points.

        Call before importing lanslab.
        """
        modules = [np.fft]
        try:
            import scipy.fft

            modules.append(scipy.fft)
        except ImportError:
            pass
        for module in modules:
            for entry, (kind, _, _) in _FFT_ENTRY_POINTS.items():
                original = getattr(module, entry, None)
                if original is None:
                    continue
                self._replace(module, entry, self._fft_wrapper(entry, kind, original))

    def _fft_wrapper(self, entry: str, kind: str, original):
        def count(args, kwargs, result):
            transforms, points = fft_work(entry, args, kwargs, result)
            return {
                f"{FFT_LAYER}.scalar_transforms": transforms,
                f"{FFT_LAYER}.{kind}_transforms": transforms,
                f"{FFT_LAYER}.points": transforms * points,
            }

        return self.wrap(original, FFT_LAYER, count)

    # ------------------------------------------------------------ lanslab

    def install_lanslab(self):
        """Wrap the public lanslab functions listed in _function_layers."""
        import lanslab  # noqa: F401  (loads every submodule)
        from lanslab.littlewood_paley import DyadicPartition

        targets = {}
        for module_name, func_name, layer, count in _function_layers():
            original = getattr(sys.modules[module_name], func_name)
            targets[id(original)] = (original, self.wrap(original, layer, count))
        for module_name in sorted(m for m in sys.modules if m == "lanslab" or m.startswith("lanslab.")):
            module = sys.modules[module_name]
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._replace(module, attr, hit[1])
        self._replace(DyadicPartition, "besov_norm", self.wrap(
            DyadicPartition.besov_norm,
            lambda args, kwargs: "littlewood_paley.besov_norm_p2"
            if _arg(args, kwargs, 2, "index").p == 2 else "littlewood_paley.besov_norm_pq"))

    # ------------------------------------------------------------ output

    def metrics(self) -> dict:
        """Flat {metric name: number} over every layer seen so far."""
        out = {}
        for layer in set(self.calls) | set(self.self_s):
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        out.update(self.counters)
        return out

    def write(self, path, extra: dict):
        """Write the spans and the layer totals as one JSON document."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = {**extra, "span_fields": ["id", "parent", "name", "start_s", "end_s"],
               "spans": self.spans, "layers": self.metrics()}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _arg(args: tuple, kwargs: dict, position: int, keyword: str):
    return args[position] if len(args) > position else kwargs.get(keyword)


def _written_bytes(layer: str):
    """Count the size of the file a writer's first argument names."""
    return lambda args, kwargs, result: {f"{layer}.bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _function_layers() -> list:
    """(module, function, layer, count) for every traced public function."""
    rows = [
        ("lanslab.spectral", "forward_transform", "spectral.forward_transform", None),
        ("lanslab.spectral", "inverse_transform", "spectral.inverse_transform", None),
        ("lanslab.spectral", "leray_project", "spectral.leray_project", None),
        ("lanslab.spectral", "lp_norm", "spectral.lp_norm", None),
        ("lanslab.dynamics", "reynolds_stress", "dynamics.reynolds_stress", None),
        ("lanslab.dynamics", "duhamel_map", "dynamics.duhamel_map", None),
        ("lanslab.littlewood_paley", "build_partition", "littlewood_paley.build_partition", None),
        ("lanslab.monitor", "gronwall_monitor", "monitor.gronwall", None),
        ("lanslab.monitor", "higher_regularity_trace", "monitor.trace", None),
        ("lanslab.inequality_lab", "verify_product_estimate", "inequality_lab.product_estimate", None),
    ]
    rows += [("lanslab.ensembles", f, "ensembles.fields", None)
             for f in ("random_band_limited", "random_solenoidal", "shell_field", "power_law_field")]
    rows.append(("lanslab.dynamics", "nonlinear_rhs",
                 lambda args, kwargs: "dynamics.nonlinear_rhs_bg"
                 if _arg(args, kwargs, 2, "v") is not None else "dynamics.nonlinear_rhs", None))
    steps = lambda args, kwargs, traj: {"dynamics.march.steps": len(traj) - 1}
    rows += [("lanslab.dynamics", f, "dynamics.march", steps) for f in ("solve_lans", "solve_mlans")]
    rows.append(("lanslab.dynamics", "picard_iterate", "dynamics.picard",
                 lambda args, kwargs, res: {"dynamics.picard.iterations": len(res[1])}))
    rows.append(("lanslab.monitor", "split_with_report", "monitor.split",
                 lambda args, kwargs, res: {"monitor.split.levels_scanned": len(res.tail_norms_scanned)}))
    rows += [("lanslab.fieldio", f, f"fieldio.{f}", _written_bytes(f"fieldio.{f}"))
             for f in ("write_field", "field_to_csv")]
    rows += [("lanslab.reporting", f, "reporting.write", _written_bytes("reporting.write"))
             for f in ("write_json_report", "write_csv_trace")]
    return rows
