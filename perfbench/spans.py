"""Spans and counters recorded around calls into spade's public functions.

The tracer wraps each function where its caller looks it up: a module
attribute that `pipeline` (or `layers`, `attention`, `network`) imported by
name, a class's `__call__` for network modules, and the `_backward` closure
of each tensor an op returns. Every span knows its parent, so a span's self
time is its duration minus the time covered by its children.

Nothing is patched until `Tracer.install()`; the untraced run does not
import this module.
"""

from __future__ import annotations

import functools
import hashlib
import os
import threading
import time
from collections import defaultdict

import numpy as np

MODULE_CLASSES = (
    "FeaturePyramid",
    "FeatureFusion",
    "CCDTStage",
    "ResNetCBAMBlock",
    "CBAM",
    "TransformerBlock",
    "DeformableAttention",
    "DPTDecoderBlock",
    "OutputHead",
    "RefinementNet",
)
OPS = ("conv2d", "depthwise_conv2d", "bilinear_sample", "interpolate_bilinear", "softmax")

# (span name, metric suffixes) for the spans reported as timings
TIMED_SPANS = {
    "densify.jbu_densify": ("calls", "ms"),
    "densify.sparse_scale_map": ("ms",),
    "nn.backward": ("ms",),
    "optim.AdamW.step": ("ms",),
    "losses.loss_total": ("ms",),
    "pipeline.run_frame": ("calls", "ms"),
    "alignment.align_global": ("calls", "ms"),
    "alignment.align_with_laser": ("calls", "ms"),
    "metrics.compute_metrics": ("calls", "ms"),
    "metrics.aggregate_metrics": ("ms",),
    "core.read_raster": ("ms",),
    "core.read_points": ("ms",),
    "core.write_raster": ("ms",),
    "checkpoint.save": ("ms",),
    "checkpoint.load": ("ms",),
    "synth.generate_scene": ("ms",),
    "synth.oracle_relative": ("ms",),
    "sensors.sample_pattern": ("ms",),
    "pipeline.build_corpus": ("ms",),
}
COUNTERS = (
    "nn.tape.nodes",
    "pipeline.sweep.net_passes",
    "pipeline.sweep.evals",
    "pipeline.sweep.skipped",
    "alignment.mode.scale_shift",
    "alignment.mode.scale_only",
    "alignment.mode.laser_baseline",
    "alignment.failed",
    "core.io_bytes",
    "checkpoint.bytes",
)


def per_layer_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for span, suffixes in TIMED_SPANS.items():
        for s in suffixes:
            units[f"{span}.{s}"] = "count" if s == "calls" else "ms"
    units["densify.jbu.points"] = "px/call"
    units["densify.jbu.coverage"] = "frac"
    for cls in MODULE_CLASSES:
        units[f"nn.{cls}.fwd_ms"] = "ms"
        units[f"nn.{cls}.self_ms"] = "ms"
    for op in OPS:
        units[f"nn.op.{op}.calls"] = "count"
        units[f"nn.op.{op}.fwd_ms"] = "ms"
        units[f"nn.op.{op}.bwd_ms"] = "ms"
        units[f"nn.op.{op}.gflop"] = "GFLOP"
        units[f"nn.op.{op}.mb"] = "MB"
    for c in COUNTERS:
        units[c] = "bytes" if c.endswith("bytes") else "count"
    units["pipeline.sweep.useful_pass_ratio"] = "frac"
    units["bench.trace_overhead_frac"] = "frac"
    return units


# Spans that must fire at least once in the traced run of each workload.
_NN_SPANS = {f"nn.{c}" for c in MODULE_CLASSES} | {f"nn.op.{o}.fwd" for o in OPS}
_STAGE_SPANS = {
    "alignment.align_global",
    "densify.jbu_densify",
    "densify.sparse_scale_map",
    "synth.generate_scene",
    "synth.oracle_relative",
    "sensors.sample_pattern",
}
EXPECTED_SPANS = {
    "frame": _NN_SPANS
    | _STAGE_SPANS
    | {
        "pipeline.run_frame",
        "metrics.compute_metrics",
        "core.read_raster",
        "core.read_points",
        "core.write_raster",
        "checkpoint.save",
        "checkpoint.load",
    },
    "train": _NN_SPANS
    | _STAGE_SPANS
    | {f"nn.op.{o}.bwd" for o in OPS}
    | {
        "pipeline.build_corpus",
        "nn.backward",
        "optim.AdamW.step",
        "losses.loss_total",
        "checkpoint.save",
    },
    "sweep": _NN_SPANS
    | _STAGE_SPANS
    | {
        "pipeline.sweep",
        "pipeline.run_frame",
        "pipeline.build_corpus",
        "alignment.align_with_laser",
        "metrics.compute_metrics",
        "metrics.aggregate_metrics",
        "checkpoint.save",
        "checkpoint.load",
    },
}
# Counters that must be non-zero (True) or exactly zero (False).
EXPECTED_COUNTS = {
    "frame": {"nn.tape.nodes": False, "core.io_bytes": True, "checkpoint.bytes": True},
    "train": {"nn.tape.nodes": True, "checkpoint.bytes": True},
    "sweep": {
        "nn.tape.nodes": False,
        "pipeline.sweep.net_passes": True,
        "alignment.mode.laser_baseline": True,
        "checkpoint.bytes": True,
    },
}


_INHERITED = object()


def _shape(a) -> tuple:
    return np.shape(getattr(a, "data", a))


def _size(a) -> int:
    return int(np.prod(_shape(a)))


# Nominal operation counts and bytes moved, computed from shapes (float64),
# independent of how the kernel is implemented.
def _conv2d_work(args, out):
    x, w = args[0], args[1]
    B, F, Ho, Wo = _shape(out)
    _, C, kh, kw = _shape(w)
    flops = 2 * B * F * Ho * Wo * C * kh * kw
    return flops, 8 * (_size(x) + _size(w) + _size(out))


def _depthwise_work(args, out):
    x, w = args[0], args[1]
    B, C, Ho, Wo = _shape(out)
    _, kh, kw = _shape(w)
    return 2 * B * C * Ho * Wo * kh * kw, 8 * (_size(x) + _size(w) + _size(out))


def _bilinear_sample_work(args, out):
    # four taps gathered and blended per output value
    n = _size(out)
    return 8 * n, 8 * (4 * n + _size(args[1]) + n)


def _interpolate_work(args, out):
    return 8 * _size(out), 8 * (_size(args[0]) + _size(out))


def _softmax_work(args, out):
    # max, subtract, exp, sum, divide per element
    return 5 * _size(out), 8 * 2 * _size(out)


_OP_WORK = {
    "conv2d": _conv2d_work,
    "depthwise_conv2d": _depthwise_work,
    "bilinear_sample": _bilinear_sample_work,
    "interpolate_bilinear": _interpolate_work,
    "softmax": _softmax_work,
}


class Tracer:
    """In-memory spans (calls, total and self time per name) plus counters."""

    def __init__(self):
        self.active = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.jbu_coverage_sum = 0.0
        self._sweep_depth = 0
        self._sweep_inputs = set()

    # -- span bookkeeping -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, after=None, on_error=None):
        """Wrap fn in a span; after(out, args, kwargs) records counters and
        its cost is charged to no span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                if on_error is not None:
                    on_error()
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                with self._lock:
                    self.calls[name] += 1
                    self.total_s[name] += dt
                    self.self_s[name] += dt - children[0]
            if after is not None:
                t1 = time.perf_counter()
                after(out, args, kwargs)
                if stack:
                    stack[-1][0] += time.perf_counter() - t1
            return out

        return wrapper

    def count(self, key, n=1.0):
        with self._lock:
            self.counts[key] += n

    def _patch(self, owner, attr, replacement):
        if not hasattr(owner, attr):
            raise AttributeError(f"hook point {owner.__name__}.{attr} no longer exists")
        # a class may inherit the attribute; restoring then means deleting ours
        self._patches.append((owner, attr, owner.__dict__.get(attr, _INHERITED)))
        setattr(owner, attr, replacement)

    def _wrap_attr(self, owner, attr, name, after=None, on_error=None):
        self._patch(owner, attr, self.span(name, getattr(owner, attr), after, on_error))

    # -- hooks ----------------------------------------------------------------

    def install(self, spade):
        """Wrap every layer boundary the benchmark reports; raises if a hook
        point has disappeared, so a renamed function fails loudly."""
        pipeline, core, synth, sensors = spade.pipeline, spade.core, spade.synth, spade.sensors
        from spade.nn import attention, layers, network, tensor
        from spade.optim import AdamW

        def io_after(out, args, kwargs):
            # read_*(path) or write_raster(raster, path)
            self.count("core.io_bytes", os.path.getsize(args[-1]))

        for fn in ("read_raster", "read_points", "write_raster"):
            self._wrap_attr(core, fn, f"core.{fn}", after=io_after)

        def ckpt_after(out, args, kwargs):
            self.count("checkpoint.bytes", os.path.getsize(args[0]))

        self._wrap_attr(pipeline, "save_checkpoint", "checkpoint.save", after=ckpt_after)
        self._wrap_attr(pipeline, "load_checkpoint", "checkpoint.load", after=ckpt_after)

        for owner in (pipeline, synth):
            self._wrap_attr(owner, "generate_scene", "synth.generate_scene")
            self._wrap_attr(owner, "oracle_relative", "synth.oracle_relative")
        for owner in (pipeline, sensors):
            self._wrap_attr(owner, "sample_pattern", "sensors.sample_pattern")
        self._wrap_attr(pipeline, "build_corpus", "pipeline.build_corpus")

        def fit_after(out, args, kwargs):
            self.count(f"alignment.mode.{out[1].mode}")

        def fit_failed():
            self.count("alignment.failed")

        for fn in ("align_global", "align_with_laser"):
            self._wrap_attr(pipeline, fn, f"alignment.{fn}", after=fit_after, on_error=fit_failed)

        def jbu_after(out, args, kwargs):
            eps, guide = args[0], args[1]
            self.count("densify.jbu.points", int((eps.known & guide.valid).sum()))
            with self._lock:
                self.jbu_coverage_sum += float(out.filled.sum()) / max(int(guide.valid.sum()), 1)

        self._wrap_attr(pipeline, "sparse_scale_map", "densify.sparse_scale_map")
        self._wrap_attr(pipeline, "jbu_densify", "densify.jbu_densify", after=jbu_after)
        self._wrap_attr(pipeline, "compute_metrics", "metrics.compute_metrics")
        self._wrap_attr(pipeline, "aggregate_metrics", "metrics.aggregate_metrics")
        self._wrap_attr(pipeline, "loss_total", "losses.loss_total")
        self._wrap_attr(pipeline, "run_frame", "pipeline.run_frame")
        self._install_sweep(pipeline)

        self._patch(AdamW, "step", self.span("optim.AdamW.step", AdamW.step))
        self._patch(tensor.Tensor, "backward", self.span("nn.backward", tensor.Tensor.backward))
        self._install_tape(tensor.Tensor)
        for owner, op in (
            (layers, "conv2d"),
            (layers, "depthwise_conv2d"),
            (attention, "bilinear_sample"),
            (attention, "softmax"),
            (network, "interpolate_bilinear"),
        ):
            self._install_op(owner, op)
        for cls_name in MODULE_CLASSES:
            cls = getattr(spade.nn, cls_name)
            after = self._refine_after if cls_name == "RefinementNet" else None
            self._patch(cls, "__call__", self.span(f"nn.{cls_name}", cls.__call__, after))
        self.active = True

    def uninstall(self):
        self.active = False
        for owner, attr, original in reversed(self._patches):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def _install_sweep(self, pipeline):
        inner = self.span("pipeline.sweep", pipeline.sweep)

        def sweep(model, cfg, spec):
            with self._lock:
                self._sweep_depth += 1
            try:
                report = inner(model, cfg, spec)
            finally:
                with self._lock:
                    self._sweep_depth -= 1
            self.count("pipeline.sweep.evals", len(report["cells"]) * report["n_frames"])
            self.count("pipeline.sweep.skipped", sum(c["skipped_frames"] for c in report["cells"]))
            return report

        self._patch(pipeline, "sweep", functools.wraps(pipeline.sweep)(sweep))

    def _refine_after(self, out, args, kwargs):
        if self._sweep_depth:
            _, eps_dense, z_tilde = args[:3]
            digest = hashlib.sha1(eps_dense.data.tobytes() + z_tilde.data.tobytes()).digest()
            with self._lock:
                self.counts["pipeline.sweep.net_passes"] += 1
                self._sweep_inputs.add(digest)

    def _install_tape(self, Tensor):
        make = Tensor._make

        def counted_make(data, parents, backward):
            out = make(data, parents, backward)
            if self.active and out._backward is not None:
                self.count("nn.tape.nodes")
            return out

        self._patch(Tensor, "_make", staticmethod(counted_make))

    def _install_op(self, owner, op):
        work = _OP_WORK[op]

        def after(out, args, kwargs):
            flops, nbytes = work(args, out)
            self.count(f"nn.op.{op}.flop", flops)
            self.count(f"nn.op.{op}.bytes", nbytes)
            if out._backward is not None:
                out._backward = self.span(f"nn.op.{op}.bwd", out._backward)

        self._wrap_attr(owner, op, f"nn.op.{op}.fwd", after=after)

    # -- results --------------------------------------------------------------

    def missing(self, workload: str) -> list[str]:
        """Expected spans that never fired and counters with the wrong sign."""
        problems = [f"span {s} never fired" for s in sorted(EXPECTED_SPANS[workload]) if not self.calls[s]]
        for key, nonzero in EXPECTED_COUNTS[workload].items():
            if bool(self.counts[key]) != nonzero:
                want = "non-zero" if nonzero else "zero"
                problems.append(f"counter {key} is {self.counts[key]:g}, expected {want}")
        return problems

    def metrics(self) -> dict:
        """Per-layer metric values (without bench.trace_overhead_frac)."""
        m = {}
        for span, suffixes in TIMED_SPANS.items():
            for s in suffixes:
                m[f"{span}.{s}"] = self.calls[span] if s == "calls" else 1e3 * self.total_s[span]
        jbu_calls = self.calls["densify.jbu_densify"]
        m["densify.jbu.points"] = self.counts["densify.jbu.points"] / jbu_calls if jbu_calls else 0.0
        m["densify.jbu.coverage"] = self.jbu_coverage_sum / jbu_calls if jbu_calls else 0.0
        for cls in MODULE_CLASSES:
            m[f"nn.{cls}.fwd_ms"] = 1e3 * self.total_s[f"nn.{cls}"]
            m[f"nn.{cls}.self_ms"] = 1e3 * self.self_s[f"nn.{cls}"]
        for op in OPS:
            m[f"nn.op.{op}.calls"] = self.calls[f"nn.op.{op}.fwd"]
            m[f"nn.op.{op}.fwd_ms"] = 1e3 * self.total_s[f"nn.op.{op}.fwd"]
            m[f"nn.op.{op}.bwd_ms"] = 1e3 * self.total_s[f"nn.op.{op}.bwd"]
            m[f"nn.op.{op}.gflop"] = self.counts[f"nn.op.{op}.flop"] / 1e9
            m[f"nn.op.{op}.mb"] = self.counts[f"nn.op.{op}.bytes"] / 1e6
        for c in COUNTERS:
            m[c] = self.counts[c]
        passes = self.counts["pipeline.sweep.net_passes"]
        m["pipeline.sweep.useful_pass_ratio"] = len(self._sweep_inputs) / passes if passes else 0.0
        return m
