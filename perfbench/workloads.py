"""The three benchmark workloads, each a closed loop with one caller.

frame  per-frame inference as `spade run` does it: read FDR1/CSV inputs,
       `run_frame` with ground truth, write the output raster.
train  `pipeline.train` with the desk network at B=8 on a reduced corpus.
sweep  `pipeline.sweep` over every sensing pattern, two point counts and
       the three default range caps.

Each workload draws its inputs from the benchmark seed and checks every
output against reference values recorded by `reference.py`.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import spade.core as core
import spade.pipeline as pipeline
import spade.sensors as sensors
import spade.synth as synth

# Frame inputs come from a fixed pool with a reference per frame; the
# benchmark seed picks which frames a run sees and in what order.
POOL_SEED = 20251029
POOL_SIZE = 1024
# Enough distinct frames for twice the run length at today's speed; a run
# that exhausts them stops early rather than repeat an input.
FRAMES_PER_RUN = 640
# frames_per_s is the median over blocks of this many frames, so a slow
# stretch of a few seconds on a shared machine moves it less than a mean.
BLOCK_FRAMES = 32
TRACE_FRAMES = 32
MODEL_SEED = 11
WARMUP_FRAME = POOL_SIZE  # outside the pool, so no timed input repeats it

# train and sweep build their own corpus from RunConfig.seed; references
# exist for these config seeds and call j of a run uses (seed + j) mod 16.
REF_SEEDS = 16
TRAIN_CONFIG = dict(train_frames=16, val_frames=8, epochs=2, decay_after_epoch=1)
SWEEP_SPEC = dict(
    point_counts=(100, 10),
    patterns=("feature_like", "uniform_grid", "sonar_line", "dvl4", "laser2"),
    n_frames=3,
)

# Relative tolerance of the reference checks: far above float64
# re-association noise (~1e-15 per op), far below any real change in a
# layer. Training compounds four AdamW steps, so it gets more room.
RTOL = {"frame": 1e-9, "train": 1e-6, "sweep": 1e-9}


def reference_inputs() -> dict:
    """The input definitions reference.json was recorded for, as JSON reads them."""
    return json.loads(
        json.dumps(
            {
                "pool_seed": POOL_SEED,
                "pool_size": POOL_SIZE,
                "model_seed": MODEL_SEED,
                "ref_seeds": REF_SEEDS,
                "train_config": TRAIN_CONFIG,
                "sweep_spec": SWEEP_SPEC,
            }
        )
    )


def close(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * (abs(b) + 1e-3)


def log_exception(what: str):
    print(f"perfbench: {what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


@dataclass
class Outcome:
    """What one timed loop did."""

    items: int = 0  # frames scored (frame, sweep) or trained on (train)
    attempted: int = 0
    failed: int = 0  # exceptions plus reference mismatches
    skipped: int = 0  # sweep frames the pipeline skipped by design
    wall_s: float = 0.0  # timed seconds, checks excluded
    item_ms: list = field(default_factory=list)  # per-frame latency samples
    block_rates: list = field(default_factory=list)  # items per second of each block
    notes: list = field(default_factory=list)  # extra "name value unit" lines


def desk_model_checkpoint(path):
    """The fixed-seed desk model (non-zero output head) saved to path and
    loaded back, as `spade run --checkpoint` would load it."""
    cfg = pipeline.RunConfig()
    pipeline.SpadeModel(cfg, seed=MODEL_SEED, init="train").save(path)
    return pipeline.SpadeModel.load(path)


def pool_frame(i: int) -> pipeline.FrameData:
    """Eval frame i of the pool: a desk-config scene, its relative-depth
    oracle and 20-260 feature-like points (the recipe of build_corpus)."""
    cfg = pipeline.RunConfig()
    h, w = cfg.input_hw
    rng = np.random.default_rng([POOL_SEED, i])
    depth_min = float(rng.uniform(0.8, 1.6))
    gt, guide = synth.generate_scene(
        synth.SceneSpec(
            layout=pipeline.TRAIN_LAYOUTS[i % len(pipeline.TRAIN_LAYOUTS)],
            height=h,
            width=w,
            depth_min=depth_min,
            depth_max=depth_min + float(rng.uniform(1.2, 3.0)),
            texture_scale=float(rng.uniform(6.0, 14.0)),
            seed=int(rng.integers(2**31)),
        )
    )
    z_rel = synth.oracle_relative(
        gt,
        synth.OracleSpec(
            s_true=float(rng.uniform(0.8, 2.5)),
            t_true=float(rng.uniform(0.0, 0.4)),
            bias_amplitude=cfg.bias_amplitude,
            bias_wavelength=cfg.bias_wavelength,
            noise_sigma=cfg.noise_sigma,
            seed=int(rng.integers(2**31)),
        ),
    )
    count = int(rng.integers(cfg.points_min, cfg.points_max + 1))
    pts = sensors.sample_pattern(
        gt,
        sensors.PatternSpec(kind="feature_like", count=count, seed=int(rng.integers(2**31))),
        guide=guide,
    )
    return pipeline.FrameData(f"pool_{i:04d}", gt, guide, z_rel, pts)


def write_frame(frame: pipeline.FrameData, d: str) -> None:
    os.makedirs(d, exist_ok=True)
    core.write_raster(frame.z_rel, os.path.join(d, "relative.fdr1"))
    core.write_raster(frame.guide, os.path.join(d, "guide.fdr1"))
    core.write_raster(frame.gt, os.path.join(d, "gt.fdr1"))
    core.write_points(frame.points, os.path.join(d, "points.csv"))


def run_frame_files(model, d: str):
    """One `spade run`: read the inputs, infer with ground truth, write the depth."""
    z = core.read_raster(os.path.join(d, "relative.fdr1"))
    guide = core.read_raster(os.path.join(d, "guide.fdr1"))
    pts = core.read_points(os.path.join(d, "points.csv"))
    gt = core.read_raster(os.path.join(d, "gt.fdr1"))
    result = pipeline.run_frame(model, z, guide, pts, gt=gt)
    core.write_raster(result.depth, os.path.join(d, "depth.fdr1"))
    return result


def frame_reference(result) -> list:
    return [result.metrics.mae, result.fit.s, result.fit.t, result.fit.mode]


def frame_mismatch(result, ref: list, rtol: float) -> str | None:
    mae, s, t, mode = ref
    got = frame_reference(result)
    if result.fit.mode != mode or not all(close(a, b, rtol) for a, b in zip(got[:3], (mae, s, t))):
        return f"(mae, s, t, mode) = {got}, reference {ref}"
    depth = result.depth
    if not np.array_equal(depth.valid, result.aligned.valid):
        return "output valid mask differs from the aligned mask"
    v = depth.values[depth.valid]
    if not (np.all(np.isfinite(v)) and np.all(v > 0)):
        return "non-finite or non-positive depth at a valid pixel"
    if not (np.all(np.isfinite(result.eps_hat)) and np.all(result.eps_hat > 0)):
        return "eps_hat is not finite and positive everywhere"
    return None


def train_config(cfg_seed: int) -> pipeline.RunConfig:
    return pipeline.RunConfig(seed=cfg_seed, **TRAIN_CONFIG)


def train_reference(train_log: dict) -> list:
    return [[e["train_loss"], e["val_loss"]] for e in train_log["history"]]


def sweep_spec() -> pipeline.SweepSpec:
    return pipeline.SweepSpec(**SWEEP_SPEC)


_CELL_METRICS = ("mae", "rmse", "absrel", "silog", "imae")


def sweep_reference(report: dict) -> list:
    def summary(agg):
        if agg is None:
            return None
        return [agg[k] for k in _CELL_METRICS] + [agg["frame_count"], agg["valid_px"]]

    return [
        [c["pattern"], c["count"], c["cap_m"], c["skipped_frames"], summary(c["refined"]), summary(c["ga_baseline"])]
        for c in report["cells"]
    ]


def _cell_matches(got: list, ref: list, rtol: float) -> bool:
    """Same cell and skip count; refined and GA metrics within rtol, counts exact."""

    def summary_matches(g, r):
        if g is None or r is None:
            return g is r
        return g[5:] == r[5:] and all(close(a, b, rtol) for a, b in zip(g[:5], r[:5]))

    return got[:4] == ref[:4] and summary_matches(got[4], ref[4]) and summary_matches(got[5], ref[5])


class Frame:
    name = "frame"

    def __init__(self, seed: int, tmp: str, refs: dict):
        self.tmp = tmp
        self.refs = refs["frames"]
        self.order = np.random.default_rng(seed).choice(POOL_SIZE, size=FRAMES_PER_RUN, replace=False)
        self.model = None

    def _dir(self, i) -> str:
        return os.path.join(self.tmp, "frames", str(int(i)))

    def setup(self, n_frames: int = FRAMES_PER_RUN) -> None:
        for i in [WARMUP_FRAME, *self.order[:n_frames]]:
            write_frame(pool_frame(int(i)), self._dir(i))
        # flush the inputs now, so their write-back does not run (and
        # compete for the CPU) inside the timed loop
        for dirpath, _, filenames in os.walk(os.path.join(self.tmp, "frames")):
            for name in filenames:
                fd = os.open(os.path.join(dirpath, name), os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
        self.model = desk_model_checkpoint(os.path.join(self.tmp, "model.spw1"))
        for _ in range(2):
            run_frame_files(self.model, self._dir(WARMUP_FRAME))

    def trace_slice(self):
        return (
            functools.partial(self.setup, n_frames=TRACE_FRAMES),
            functools.partial(self.run, n_frames=TRACE_FRAMES),
        )

    def run(self, seconds: float | None = None, n_frames: int = FRAMES_PER_RUN) -> Outcome:
        out = Outcome()
        block_s = 0.0
        block_n = 0
        for i in self.order[:n_frames]:
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                result = run_frame_files(self.model, self._dir(i))
            except Exception:
                log_exception(f"frame {i}")
                out.failed += 1
                continue
            dt = time.perf_counter() - t0
            out.wall_s += dt
            out.item_ms.append(1e3 * dt)
            out.items += 1
            block_s += dt
            block_n += 1
            if block_n == BLOCK_FRAMES:
                out.block_rates.append(block_n / block_s)
                block_s, block_n = 0.0, 0
            problem = frame_mismatch(result, self.refs[int(i)], RTOL["frame"])
            if problem:
                print(f"perfbench: frame {i}: {problem}", file=sys.stderr)
                out.failed += 1
            if seconds is not None and out.wall_s >= seconds:
                break
        if not out.block_rates and block_n:
            out.block_rates.append(block_n / block_s)
        tail = tail_percentile(out.item_ms)
        if tail is not None:
            p, value, beyond = tail
            out.notes.append(f"frame_tail_ms {value!r} ms p{p:g} ({beyond} of {len(out.item_ms)} samples beyond)")
        return out


class Train:
    name = "train"

    def __init__(self, seed: int, tmp: str, refs: dict):
        self.seed, self.tmp, self.refs = seed, tmp, refs
        self.out_dir = os.path.join(tmp, "train")

    def setup(self) -> None:
        # the smallest full training run: corpus, model construction, one
        # B=8 step, validation and the checkpoint write
        cfg = pipeline.RunConfig(
            seed=REF_SEEDS, train_frames=8, val_frames=1, epochs=1, decay_after_epoch=1
        )
        pipeline.train(cfg, out_dir=self.out_dir, quiet=True)

    def trace_slice(self):
        return self.setup, functools.partial(self.run, calls=1)

    def run(self, seconds: float | None = None, calls: int | None = None) -> Outcome:
        out = Outcome()
        j = 0
        while (calls is None or j < calls) and (seconds is None or out.wall_s < seconds):
            cfg_seed = (self.seed + j) % REF_SEEDS
            j += 1
            cfg = train_config(cfg_seed)
            frames = cfg.train_frames * cfg.epochs
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                _, train_log = pipeline.train(cfg, out_dir=self.out_dir, quiet=True)
            except Exception:
                log_exception(f"train (config seed {cfg_seed})")
                out.failed += 1
                continue
            dt = time.perf_counter() - t0
            out.wall_s += dt
            out.items += frames
            out.item_ms.append(1e3 * dt / frames)
            out.block_rates.append(frames / dt)
            got, ref = train_reference(train_log), self.refs[str(cfg_seed)]
            if len(got) != len(ref) or not all(close(a, b, RTOL["train"]) for g, r in zip(got, ref) for a, b in zip(g, r)):
                print(f"perfbench: train seed {cfg_seed}: losses {got}, reference {ref}", file=sys.stderr)
                out.failed += 1
            with open(os.path.join(self.out_dir, "checkpoint.spw1"), "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
            out.notes.append(f"train.checkpoint_sha256 {digest} seed{cfg_seed}")
        seconds_total = out.wall_s or float("nan")
        out.notes.append(f"train_samples_per_s {out.items / seconds_total!r} 1/s")
        return out


class Sweep:
    name = "sweep"

    def __init__(self, seed: int, tmp: str, refs: dict):
        self.seed, self.tmp, self.refs = seed, tmp, refs
        self.model = None

    def setup(self) -> None:
        self.model = desk_model_checkpoint(os.path.join(self.tmp, "model.spw1"))
        warm = pool_frame(WARMUP_FRAME)
        for _ in range(2):
            pipeline.run_frame(self.model, warm.z_rel, warm.guide, warm.points, gt=warm.gt)

    def trace_slice(self):
        return self.setup, functools.partial(self.run, calls=1)

    def run(self, seconds: float | None = None, calls: int | None = None) -> Outcome:
        out = Outcome()
        spec = sweep_spec()
        j = 0
        while (calls is None or j < calls) and (seconds is None or out.wall_s < seconds):
            cfg_seed = (self.seed + j) % REF_SEEDS
            j += 1
            cells = sweep_cells(spec)
            out.attempted += cells * spec.n_frames
            t0 = time.perf_counter()
            try:
                report = pipeline.sweep(self.model, pipeline.RunConfig(seed=cfg_seed), spec)
            except Exception:
                log_exception(f"sweep (config seed {cfg_seed})")
                out.failed += cells * spec.n_frames
                continue
            dt = time.perf_counter() - t0
            skipped = sum(c["skipped_frames"] for c in report["cells"])
            scored = cells * spec.n_frames - skipped
            out.wall_s += dt
            out.skipped += skipped
            out.items += scored
            out.item_ms.append(1e3 * dt / scored)
            out.block_rates.append(scored / dt)
            got, ref = sweep_reference(report), self.refs[str(cfg_seed)]
            if len(got) != len(ref):
                print(f"perfbench: sweep seed {cfg_seed}: {len(got)} cells, reference {len(ref)}", file=sys.stderr)
                out.failed += cells * spec.n_frames
                continue
            for g, r in zip(got, ref):
                if not _cell_matches(g, r, RTOL["sweep"]):
                    print(f"perfbench: sweep seed {cfg_seed}: cell {g}, reference {r}", file=sys.stderr)
                    out.failed += spec.n_frames
        out.notes.append(f"sweep_evals_per_s {out.attempted / (out.wall_s or float('nan'))!r} 1/s")
        return out


def sweep_cells(spec) -> int:
    fixed = sum(p in ("dvl4", "laser2") for p in spec.patterns)
    return (fixed + (len(spec.patterns) - fixed) * len(spec.point_counts)) * len(spec.range_caps)


def tail_percentile(samples: list, ladder=(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)):
    """Highest percentile of the ladder with at least 10 samples beyond it."""
    n = len(samples)
    for p in ladder:
        beyond = int(math.floor(n * (1.0 - p / 100.0)))
        if beyond >= 10:
            return p, float(np.percentile(samples, p)), beyond
    return None


WORKLOADS = {w.name: w for w in (Frame, Train, Sweep)}
