"""End-to-end orchestration: two-stage per-frame inference, training on the
synthetic corpus, sparsity/distribution sweeps, and report rendering."""

from __future__ import annotations

import hashlib
import json
import logging
import os
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .alignment import AffineFit, align_global, align_with_laser
from .core import (
    DepthRaster,
    LaserRig,
    ScaleMap,
    Space,
    SparsePointSet,
    budget_slices,
    from_inverse,
    to_inverse,
)
from .config import from_json
from .densify import JBUParams, fill_default, jbu_densify, sparse_scale_map
from .errors import (
    AlignmentFailureError,
    ConfigError,
    DivergenceError,
    DomainError,
    EmptyEvaluationError,
    FormatError,
    InsufficientPointsError,
    ShapeError,
    SpadeError,
)
from .losses import loss_total
from .metrics import MetricReport, aggregate_metrics, compute_metrics, score_pairs
from .nn import CCDTConfig, FeaturePyramid, Module, RefinementNet, Tensor, no_grad
from .nn.checkpoint import load_checkpoint, save_checkpoint
from .nn.network import STRIDES
from .optim import AdamW
from .sensors import PATTERN_KINDS, PatternSpec, sample_pattern, subsample
from .synth import OracleSpec, SceneSpec, generate_scene, oracle_relative

log = logging.getLogger(__name__)

TRAIN_LAYOUTS = ("seafloor_bumps", "canyon", "frame_with_ropes")


@dataclass(frozen=True)
class RunConfig:
    network: CCDTConfig = field(default_factory=CCDTConfig)
    jbu: JBUParams = field(default_factory=JBUParams)
    input_hw: tuple[int, int] = (64, 96)
    pyramid_channels: tuple[int, ...] = (16, 32, 48, 64)
    epochs: int = 10
    lr: float = 2e-4
    lr_decayed: float = 5e-5
    decay_after_epoch: int = 6
    batch_size: int = 8
    weight_decay: float = 1e-2
    betas: tuple[float, float] = (0.9, 0.999)
    train_frames: int = 200
    val_frames: int = 20
    points_min: int = 20
    points_max: int = 260
    subsample_fraction: float = 0.9
    bias_amplitude: float = 0.2
    bias_wavelength: float = 18.0
    noise_sigma: float = 0.01
    eval_cap_m: float = 10.0
    seed: int = 0

    def __post_init__(self):
        h, w = self.input_hw
        if h < 1 or w < 1 or h % 32 or w % 32:
            raise ConfigError(f"input resolution {h}x{w} must be positive multiples of 32")
        if not (1 <= self.decay_after_epoch <= self.epochs):
            raise ConfigError(
                f"decay epoch {self.decay_after_epoch} outside schedule of {self.epochs} epochs"
            )
        for name, low in (
            ("batch_size", 1), ("train_frames", 1), ("val_frames", 1), ("points_min", 1),
            ("lr", 0), ("lr_decayed", 0), ("weight_decay", 0), ("seed", 0),
        ):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.points_min > self.points_max:
            raise ConfigError(f"points_min {self.points_min} exceeds points_max {self.points_max}")
        if not 0 < self.subsample_fraction <= 1:
            raise ConfigError(f"subsample_fraction must be in (0, 1], got {self.subsample_fraction}")
        if not all(0 <= b < 1 for b in self.betas):  # AdamW divides by 1 - beta**t
            raise ConfigError(f"betas must each be in [0, 1), got {list(self.betas)}")
        if self.eval_cap_m <= 0:
            raise ConfigError(f"eval_cap_m must be > 0, got {self.eval_cap_m}")
        # the oracle fields every corpus frame shares, refused here and not by the first frame built
        OracleSpec(bias_amplitude=self.bias_amplitude, bias_wavelength=self.bias_wavelength, noise_sigma=self.noise_sigma)
        for i, (stride, g) in enumerate(zip(np.cumprod(STRIDES), self.network.grid_downsamples)):
            if (h // stride) % g or (w // stride) % g:
                raise ConfigError(
                    f"network.grid_downsamples[{i}]={g} does not divide the {h // stride}x{w // stride} "
                    f"feature map of stage {i + 1} at input_hw {h}x{w}"
                )
        if len(self.pyramid_channels) != 4:
            raise ConfigError(f"pyramid_channels {list(self.pyramid_channels)} must have exactly 4 entries, one per level")
        if min(self.pyramid_channels) < 1:
            raise ConfigError(f"pyramid_channels {list(self.pyramid_channels)} must all be >= 1")


def config_hash(cfg: RunConfig) -> str:
    canon = json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class SweepSpec:
    point_counts: tuple[int, ...] = (200, 100, 50, 10)
    patterns: tuple[str, ...] = ("feature_like",)
    range_caps: tuple[float, ...] = (10.0, 5.0, 2.0)
    n_frames: int = 20

    def __post_init__(self):
        for name in ("point_counts", "patterns", "range_caps"):
            values = getattr(self, name)
            if not values:
                raise ConfigError(f"{name} must be non-empty")
            if len(set(values)) != len(values):  # each (pattern, count, cap) names one cell
                raise ConfigError(f"{name} {list(values)} repeats an entry")
        unknown = sorted(set(self.patterns) - set(PATTERN_KINDS))
        if unknown:
            raise ConfigError(f"unknown sweep patterns {unknown}; expected some of {PATTERN_KINDS}")
        if min(self.point_counts) < 1:
            raise ConfigError(f"point_counts {list(self.point_counts)} must all be >= 1")
        if self.n_frames < 1:
            raise ConfigError(f"n_frames must be >= 1, got {self.n_frames}")
        if not all(cap > 0 for cap in self.range_caps):
            raise ConfigError(f"range caps must be positive, got {list(self.range_caps)}")


@dataclass(frozen=True)
class FrameData:
    name: str
    gt: DepthRaster
    guide: DepthRaster
    z_rel: DepthRaster
    points: SparsePointSet


@dataclass
class FrameResult:
    depth: DepthRaster
    aligned: DepthRaster
    fit: AffineFit
    eps_hat: np.ndarray
    metrics: MetricReport | None = None


class SpadeModel(Module):
    """Feature pyramid feeding the refinement network: one checkpointable module.

    Freshly built models are neutral: the output head weight is zero, so the
    predicted correction is 1 to within 1e-14 and the pipeline reduces to
    global alignment up to rounding. Training starts from `init="train"`,
    which perturbs only that final weight slightly so gradients reach the
    rest of the network while the initial output stays near 1.
    """

    HEAD_INIT_SCALE = 0.01

    def __init__(self, cfg: RunConfig, seed: int | None = None, init: str = "neutral"):
        if init not in ("neutral", "train"):
            raise ConfigError(f"unknown init mode {init!r}")
        super().__init__()
        self.cfg = cfg
        rng = np.random.default_rng([cfg.seed if seed is None else seed, 7])
        self.pyramid = FeaturePyramid(rng, cfg.pyramid_channels)
        self.refine = RefinementNet(cfg.network, cfg.input_hw, cfg.pyramid_channels, rng)
        if init == "train":
            head = self.refine.head.conv3
            fan_in = head.weight.data.shape[1]
            head.weight.data[...] = (
                np.sqrt(6.0 / fan_in)
                * self.HEAD_INIT_SCALE
                * rng.uniform(-1.0, 1.0, size=head.weight.data.shape)
            )

    def forward(self, eps_dense: Tensor, z_tilde: Tensor, guide: Tensor) -> Tensor:
        return self.refine(eps_dense, z_tilde, self.pyramid(guide))

    def save(self, path):
        save_checkpoint(path, dict(self.named_arrays()), meta={"config": asdict(self.cfg)})

    @staticmethod
    def load(path) -> "SpadeModel":
        """The model an SPW1 checkpoint holds, built from its embedded config
        and filled in place; every fault in the file is a FormatError that
        names it, raised before any tensor is read."""
        model = None

        def own_arrays(meta):
            nonlocal model
            if "config" not in meta:
                raise FormatError(f"checkpoint {path} has no embedded config")
            try:
                model = SpadeModel(from_json(RunConfig, meta["config"]))
            except ConfigError as e:
                raise FormatError(f"checkpoint {path} has a malformed config: {e}") from None
            return dict(model.named_arrays())

        load_checkpoint(path, own_arrays)
        return model


# ---------------------------------------------------------------------------
# corpus generation
# ---------------------------------------------------------------------------


def build_corpus(cfg: RunConfig, split: str, n_frames: int | None = None) -> list[FrameData]:
    """Deterministic synthetic frames; train/val/eval draw disjoint seed streams."""
    stream = {"train": 1, "val": 2, "eval": 3}
    if split not in stream:
        raise ConfigError(f"unknown corpus split {split!r}")
    if n_frames is None:
        n_frames = {"train": cfg.train_frames, "val": cfg.val_frames, "eval": cfg.val_frames}[split]
    h, w = cfg.input_hw
    frames = []
    for i in range(n_frames):
        rng = np.random.default_rng([cfg.seed, stream[split], i])
        depth_min = float(rng.uniform(0.8, 1.6))
        depth_max = depth_min + float(rng.uniform(1.2, 3.0))
        scene = SceneSpec(
            layout=TRAIN_LAYOUTS[i % len(TRAIN_LAYOUTS)],
            height=h,
            width=w,
            depth_min=depth_min,
            depth_max=depth_max,
            texture_scale=float(rng.uniform(6.0, 14.0)),
            seed=int(rng.integers(2**31)),
        )
        gt, guide = generate_scene(scene)
        oracle = OracleSpec(
            s_true=float(rng.uniform(0.8, 2.5)),
            t_true=float(rng.uniform(0.0, 0.4)),
            bias_amplitude=cfg.bias_amplitude,
            bias_wavelength=cfg.bias_wavelength,
            noise_sigma=cfg.noise_sigma,
            seed=int(rng.integers(2**31)),
        )
        z_rel = oracle_relative(gt, oracle)
        count = int(rng.integers(cfg.points_min, cfg.points_max + 1))
        pts = sample_pattern(
            gt,
            PatternSpec(kind="feature_like", count=count, seed=int(rng.integers(2**31))),
            guide=guide,
        )
        frames.append(FrameData(f"{split}_{i:04d}", gt, guide, z_rel, pts))
    return frames


# ---------------------------------------------------------------------------
# stage composition
# ---------------------------------------------------------------------------


def align_frame(z_rel: DepthRaster, pts: SparsePointSet, laser: LaserRig | None = None) -> tuple[DepthRaster, AffineFit]:
    """Stage 1's fit for `align`, `run`, training and sweeps: (aligned inverse depth, fit).
    A laser rig takes the laser path only with exactly 2 points; with any
    other count the global fit runs and its `fallback` says so."""
    if laser is not None and len(pts) == 2:  # a laser pair never attempts the joint fit
        return align_with_laser(z_rel, pts, laser)
    why = None if laser is None else f"laser rig needs 2 points, got {len(pts)}"
    try:
        aligned, fit = align_global(z_rel, pts)
    except (InsufficientPointsError, AlignmentFailureError) as e:
        if why is None:
            raise
        raise type(e)(f"{why}; {e}") from None
    if why is not None:
        fit = replace(fit, fallback=why if fit.fallback is None else f"{why}; {fit.fallback}")
    return aligned, fit


@dataclass(frozen=True)
class PreparedFrame:
    """Stage 1's output for one frame, and all stage 2 reads of it."""

    aligned: DepthRaster  # aligned inverse depth
    fit: AffineFit
    corrections: ScaleMap  # JBU-densified, zeros filled with 1
    guide: DepthRaster


def prepare_frame(
    z_rel: DepthRaster, guide: DepthRaster, pts: SparsePointSet, jbu: JBUParams, laser: LaserRig | None = None
) -> PreparedFrame:
    """Stage 1 for `run`, training and sweeps: the frame aligned by
    `align_frame`, with its JBU-densified corrections."""
    aligned, fit = align_frame(z_rel, pts, laser)
    usable = SparsePointSet([p for p in pts if aligned.valid[p.v_row, p.u]])
    if len(usable) == 0:
        raise EmptyEvaluationError("no sparse points survive alignment masking")
    corrections = fill_default(jbu_densify(sparse_scale_map(usable, aligned), aligned, jbu))
    return PreparedFrame(aligned, fit, corrections, guide)


def network_inputs(frames: Sequence[PreparedFrame]) -> tuple[Tensor, Tensor, Tensor]:
    """The network's (B, 1, H, W) inputs for B prepared frames: corrections,
    aligned inverse depth and guide."""
    fields = zip(*((f.corrections.values, f.aligned.values, f.guide.values) for f in frames))
    return tuple(Tensor(np.stack(arrays)[:, None]) for arrays in fields)


def refine_frames(model: SpadeModel, frames: Sequence[PreparedFrame]) -> list[tuple[DepthRaster, np.ndarray]]:
    """Stage 2 for any number of prepared frames, in frame order: each one's
    refined depth and predicted correction map eps_hat. One eval forward per
    batch of as many frames as fit the byte budget with one sample's stage-1
    input, the (2 * embed + fused)-channel full-size map the first stage reads."""
    net, (h, w) = model.cfg.network, model.cfg.input_hw
    model.eval()
    refined = []
    for batch in budget_slices(len(frames), 8 * (2 * net.embed_channels + net.fused_channels) * h * w):
        with no_grad():
            eps_hat = model(*network_inputs(frames[batch])).data[:, 0]
        for frame, eps in zip(frames[batch], eps_hat):
            aligned = frame.aligned
            inv = np.where(aligned.valid, aligned.values * eps, 0.0)
            refined.append((from_inverse(DepthRaster(inv, aligned.valid, Space.INVERSE)), eps))
    return refined


def check_frame(z_rel: DepthRaster, guide: DepthRaster, cfg: RunConfig):
    """A frame must have the configured input size and a guide of its size,
    and the guide must be a unitless image, not a depth map, valid at every
    pixel, since the feature pyramid reads them all; this check needs no model."""
    if z_rel.shape != tuple(cfg.input_hw):
        raise ConfigError(f"frame {z_rel.shape} does not match configured input {cfg.input_hw}")
    if guide.shape != z_rel.shape:
        raise ShapeError(f"guide {guide.shape} does not match frame {z_rel.shape}")
    if guide.space is not Space.AFFINE:
        raise DomainError(f"guide must be a unitless image ({Space.AFFINE.value}), got {guide.space.value}")
    invalid = guide.valid.size - int(guide.valid.sum())
    if invalid:
        raise DomainError(f"guide has {invalid} invalid pixels of {guide.valid.size}; the network reads every guide pixel")


def run_frame(
    model: SpadeModel,
    z_rel: DepthRaster,
    guide: DepthRaster,
    pts: SparsePointSet,
    gt: DepthRaster | None = None,
    laser: LaserRig | None = None,
    cap_m: float | None = None,
) -> FrameResult:
    """Full two-stage inference for one frame."""
    cfg = model.cfg
    check_frame(z_rel, guide, cfg)
    frame = prepare_frame(z_rel, guide, pts, cfg.jbu, laser)
    ((refined, eps_hat),) = refine_frames(model, [frame])
    report = None
    if gt is not None:
        report = compute_metrics(refined, gt, cap_m if cap_m is not None else cfg.eval_cap_m)
    return FrameResult(depth=refined, aligned=frame.aligned, fit=frame.fit, eps_hat=eps_hat, metrics=report)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _subsample_seed(cfg_seed: int, epoch: int, frame_idx: int) -> int:
    return (cfg_seed * 1_000_003 + epoch * 10_007 + frame_idx * 101) & 0x7FFFFFFF


def _training_sample(frame: FrameData, pts: SparsePointSet, cfg: RunConfig):
    """(prepared frame, target inverse depth, loss mask)"""
    prepared = prepare_frame(frame.z_rel, frame.guide, pts, cfg.jbu)
    return prepared, to_inverse(frame.gt).values, frame.gt.valid & prepared.aligned.valid


def _batch_loss(model: SpadeModel, batch: list) -> Tensor:
    frames, targets, masks = zip(*batch)
    eps, z, guide = network_inputs(frames)
    zhat = model(eps, z, guide) * z
    return loss_total(zhat[:, 0], np.stack(targets), np.stack(masks))


def train(cfg: RunConfig, out_dir=None, quiet=False):
    """Optimize the refinement net and feature pyramid on the synthetic corpus.

    The relative-depth oracle is frozen by construction (it has no
    parameters); per-epoch point subsampling re-runs alignment, so the
    network sees a slightly different correction field each epoch.
    """
    train_frames = build_corpus(cfg, "train")
    model = SpadeModel(cfg, init="train")
    opt = AdamW(
        model.parameters(),
        lr=cfg.lr,
        betas=cfg.betas,
        weight_decay=cfg.weight_decay,
    )
    # validation inputs, built once; built before the model they raised peak RSS by 8 MB
    val = [_training_sample(f, f.points, cfg) for f in build_corpus(cfg, "val")]
    val_batches = [val[i : i + cfg.batch_size] for i in range(0, len(val), cfg.batch_size)]

    history = []
    for epoch in range(1, cfg.epochs + 1):
        opt.lr = cfg.lr if epoch <= cfg.decay_after_epoch else cfg.lr_decayed
        order = np.random.default_rng([cfg.seed, 4, epoch]).permutation(len(train_frames))
        model.train()
        epoch_losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = []
            for fi in order[start : start + cfg.batch_size]:
                frame = train_frames[fi]
                seed = _subsample_seed(cfg.seed, epoch, int(fi))
                pts = subsample(frame.points, round(len(frame.points) * cfg.subsample_fraction), seed=seed)
                batch.append(_training_sample(frame, pts, cfg))
            loss = _batch_loss(model, batch)
            if not np.isfinite(loss.data):
                raise DivergenceError(f"training loss became non-finite at epoch {epoch}")
            opt.zero_grad()
            loss.backward()
            opt.step()
            epoch_losses.append(loss.item())

        model.eval()
        with no_grad():
            val_losses = [_batch_loss(model, batch).item() for batch in val_batches]
        entry = {
            "epoch": epoch,
            "lr": opt.lr,
            "train_loss": float(np.mean(epoch_losses)),
            "val_loss": float(np.mean(val_losses)),
        }
        history.append(entry)
        if not quiet:
            log.info(
                "epoch %d/%d lr %.2e train %.4f val %.4f",
                epoch,
                cfg.epochs,
                opt.lr,
                entry["train_loss"],
                entry["val_loss"],
            )

    train_log = {
        "history": history,
        "param_count": model.param_count(),
        "seed": cfg.seed,
        "epochs": cfg.epochs,
        "config_hash": config_hash(cfg),
    }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        model.save(os.path.join(out_dir, "checkpoint.spw1"))
        with open(os.path.join(out_dir, "training_log.json"), "w", encoding="utf-8") as f:
            json.dump(train_log, f, indent=1, sort_keys=True)
    return model, train_log


# ---------------------------------------------------------------------------
# evaluation sweeps
# ---------------------------------------------------------------------------

_FIXED_COUNT_PATTERNS = {"dvl4": 4, "laser2": 2}
SWEEP_LASER_BASELINE_M = 0.1  # laser2 in sweeps: this baseline, fx = w and cx at the center column


def _sweep_points(frame: FrameData, pattern: str, count: int, cfg: RunConfig, frame_idx: int, laser=None):
    h, w = cfg.input_hw
    seed = (cfg.seed * 7 + frame_idx * 13) & 0x7FFFFFFF
    if pattern == "feature_like":
        return subsample(frame.points, min(count, len(frame.points)), seed=seed)
    if pattern == "uniform_grid":
        rows = max(1, int(round(np.sqrt(count * h / w))))
        cols = max(1, int(np.ceil(count / rows)))
        pts = sample_pattern(frame.gt, PatternSpec(kind="uniform_grid", grid_rows=rows, grid_cols=cols))
        return subsample(pts, min(count, len(pts)), seed=seed)
    if pattern == "sonar_line":
        return sample_pattern(frame.gt, PatternSpec(kind="sonar_line", count=count, seed=seed))
    # dvl4 and laser2 (fixed counts; PatternSpec rejects any other kind)
    return sample_pattern(frame.gt, PatternSpec(kind=pattern), laser=laser)


def sweep(model: SpadeModel, cfg: RunConfig, spec: SweepSpec) -> dict:
    """Grid of (pattern, point count, range cap) cells with a global-alignment
    baseline column: the aligned map of the same frames and points, before
    refinement.

    Frame by frame, every (pattern, count) pass is prepared by stage 1 (a
    pass whose stage 1 fails is logged and skipped), the passes are refined
    by one `refine_frames` call, and each refined pass is scored at every cap
    into its cell."""
    if tuple(cfg.input_hw) != tuple(model.cfg.input_hw):
        raise ConfigError(f"sweep input {tuple(cfg.input_hw)} does not match the model's {tuple(model.cfg.input_hw)}")
    frames = build_corpus(cfg, "eval", n_frames=spec.n_frames)
    if "feature_like" in spec.patterns:  # the one pattern that reads the frame's feature points
        # make sure enough feature points exist per frame for the largest count
        need = max(spec.point_counts)
        for i, frame in enumerate(frames):
            if len(frame.points) < need:
                pattern = PatternSpec(kind="feature_like", count=need, seed=(cfg.seed * 31 + i) & 0x7FFFFFFF)
                frames[i] = replace(frame, points=sample_pattern(frame.gt, pattern, guide=frame.guide))

    w = cfg.input_hw[1]
    rig = LaserRig(float(w), (w - 1) / 2.0, SWEEP_LASER_BASELINE_M)
    passes = [
        (pattern, count)
        for pattern in spec.patterns
        for count in ([_FIXED_COUNT_PATTERNS[pattern]] if pattern in _FIXED_COUNT_PATTERNS else spec.point_counts)
    ]
    # one list of (refined, GA) reports per cell, keys in cell order; both maps
    # are valid on aligned.valid, so a cap leaves both or neither empty
    scored = {(pattern, count, cap): [] for pattern, count in passes for cap in spec.range_caps}
    for idx, frame in enumerate(frames):
        ready = []
        for pattern, count in passes:
            laser = rig if pattern == "laser2" else None
            try:
                pts = _sweep_points(frame, pattern, count, cfg, idx, laser)
                ready.append(((pattern, count), prepare_frame(frame.z_rel, frame.guide, pts, model.cfg.jbu, laser)))
            except SpadeError as e:
                log.warning("sweep frame %s (%s, n=%d) skipped: %s", frame.name, pattern, count, e)
        for ((pattern, count), prepared), (depth, _) in zip(ready, refine_frames(model, [p for _, p in ready])):
            ga_depth = from_inverse(prepared.aligned)
            for cap in spec.range_caps:
                try:
                    ref = compute_metrics(depth, frame.gt, cap)
                except EmptyEvaluationError as e:
                    log.warning("sweep frame %s (%s, n=%d, cap %g m) skipped: %s", frame.name, pattern, count, cap, e)
                    continue
                scored[pattern, count, cap].append((ref, compute_metrics(ga_depth, frame.gt, cap)))

    cells = []
    for (pattern, count, cap), pairs in scored.items():
        ref, base = (asdict(aggregate_metrics(reports)) for reports in zip(*pairs)) if pairs else (None, None)
        cells.append(
            {
                "pattern": pattern,
                "count": count,
                "cap_m": cap,
                "refined": ref,
                "ga_baseline": base,
                "skipped_frames": len(frames) - len(pairs),
                "delta_mae_vs_ga": ref["mae"] - base["mae"] if pairs else None,
            }
        )
    return {
        "n_frames": spec.n_frames,
        "seed": cfg.seed,
        "point_counts": list(spec.point_counts),
        "patterns": list(spec.patterns),
        "range_caps": list(spec.range_caps),
        "cells": cells,
    }


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

_METRIC_KEYS = ("mae", "rmse", "absrel", "silog", "imae")


def write_pgm(path, values: np.ndarray) -> None:
    """8-bit binary PGM with a colormap monotone in the input value, white at its maximum."""
    v = np.asarray(values, dtype=np.float64)
    top = float(np.max(v))
    img = np.zeros(v.shape, dtype=np.uint8) if top <= 0 else np.clip(
        np.round(255.0 * v / top), 0, 255
    ).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{v.shape[1]} {v.shape[0]}\n255\n".encode("ascii"))
        f.write(img.tobytes())


def error_map(pred: DepthRaster, gt: DepthRaster) -> np.ndarray:
    mask = pred.valid & gt.valid
    return np.where(mask, np.abs(pred.values - gt.values), 0.0)


def _sweep_columns(cell: dict, digits: int) -> list:
    """The columns both sweep tables write: pattern, count, cap, the refined
    metrics and the GA MAE, `nan` where the cell is empty."""
    ref = cell["refined"] or {}
    values = [ref.get(k, float("nan")) for k in _METRIC_KEYS]
    values.append((cell["ga_baseline"] or {}).get("mae", float("nan")))
    return [cell["pattern"], str(cell["count"]), str(cell["cap_m"])] + [f"{v:.{digits}f}" for v in values]


def sweep_table_csv(report: dict) -> str:
    lines = ["pattern,count,cap_m," + ",".join(_METRIC_KEYS) + ",ga_mae,delta_mae_vs_ga,skipped"]
    for cell in report["cells"]:
        delta = cell["delta_mae_vs_ga"]
        row = _sweep_columns(cell, 6) + ["" if delta is None else f"{delta:.6f}", str(cell["skipped_frames"])]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def sweep_table_markdown(report: dict) -> str:
    head = "| pattern | count | cap (m) | " + " | ".join(k.upper() for k in _METRIC_KEYS) + " | GA MAE |"
    sep = "|" + "---|" * (len(_METRIC_KEYS) + 4)
    lines = [head, sep] + ["| " + " | ".join(_sweep_columns(cell, 4)) + " |" for cell in report["cells"]]
    return "\n".join(lines) + "\n"


def render_report(pairs: list, out_dir) -> dict:
    """Emit per-frame error maps (PGM) and metric tables for (name, pred, gt)
    raster triples; returns the written paths. Every pair is scored before
    any file is written."""
    scored = dict(score_pairs(pairs, float(np.inf))[0])
    os.makedirs(out_dir, exist_ok=True)
    written = {"error_maps": [], "tables": []}
    csv_lines = ["frame," + ",".join(_METRIC_KEYS)]
    md_lines = ["| frame | " + " | ".join(k.upper() for k in _METRIC_KEYS) + " |", "|" + "---|" * 6]
    for name, pred, gt in pairs:
        path = os.path.join(out_dir, f"error_{name}.pgm")
        write_pgm(path, error_map(pred, gt))
        written["error_maps"].append(path)
        rep = scored.get(name)
        if rep is None:
            csv_lines.append(f"{name},skipped,,,,")
            md_lines.append(f"| {name} | skipped | | | | |")
            continue
        vals = [f"{getattr(rep, k):.6f}" for k in _METRIC_KEYS]
        csv_lines.append(name + "," + ",".join(vals))
        md_lines.append("| " + " | ".join([name] + vals) + " |")
    csv_path = os.path.join(out_dir, "metrics.csv")
    md_path = os.path.join(out_dir, "metrics.md")
    with open(csv_path, "w", encoding="utf-8") as f:
        f.write("\n".join(csv_lines) + "\n")
    with open(md_path, "w", encoding="utf-8") as f:
        f.write("\n".join(md_lines) + "\n")
    written["tables"] = [csv_path, md_path]
    return written
