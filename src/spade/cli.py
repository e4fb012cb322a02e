"""Command-line interface.

Subcommands: synth, simulate, align, densify, train, run, eval, sweep,
gradcheck, report. Each accepts only the flags it reads; any other flag is
a usage error. A checkpoint carries its config and seed, so `run
--checkpoint` refuses --config and --seed and `sweep` has neither. Exit
codes: 0 ok, 2 config or usage error, 3 numeric failure, 4 I/O or format
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .alignment import align_global, align_with_laser
from .core import (
    CameraIntrinsics,
    DepthRaster,
    Space,
    raster_to_scale_map,
    read_points,
    read_raster,
    write_points,
    write_raster,
)
from .config import read_config
from .densify import JBUParams, fill_default, jbu_densify
from .errors import ConfigError, SpadeError
from .gradsuite import TOLERANCE, run_suite
from .metrics import aggregate_metrics, compute_metrics
from .pipeline import (
    LaserRig,
    RunConfig,
    SpadeModel,
    SweepSpec,
    config_hash,
    render_report,
    run_frame,
    sweep,
    sweep_table_csv,
    sweep_table_markdown,
    train,
)
from .sensors import PatternSpec, sample_pattern
from .synth import SynthSpec, generate_scene, oracle_relative


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")


def _load_config(args) -> RunConfig:
    cfg = read_config(RunConfig, args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _parse_floats(text, n, what):
    parts = text.split(",")
    if len(parts) != n:
        raise ConfigError(f"{what} expects {n} comma-separated values, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"{what}: could not parse {text!r}")
    if not all(np.isfinite(values)):
        raise ConfigError(f"{what} values must be finite, got {text!r}")
    return values


def _laser_camera(text, n, z, pts):
    """The n values of --laser (fx,cx,B, then u1,u2 for align) and the rig's
    camera: fx for both focal lengths, the principal row at the middle of z.
    A laser frame has exactly 2 points."""
    values = _parse_floats(text, n, "--laser")
    if len(pts) != 2:
        raise ConfigError(f"laser alignment expects exactly 2 points, file has {len(pts)}")
    fx, cx, baseline = values[:3]
    if baseline <= 0:
        raise ConfigError(f"--laser baseline B must be > 0, got {baseline}")
    return values, CameraIntrinsics(fx=fx, fy=fx, cx=cx, cy=(z.height - 1) / 2.0)


def _check_cap(cap):
    if not 0 < cap < float("inf"):  # also refuses nan
        raise ConfigError(f"--cap must be a finite number > 0, got {cap}")


# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    spec = read_config(SynthSpec, args.spec)
    if args.seed is not None:
        oracle = None if spec.oracle is None else dataclasses.replace(spec.oracle, seed=args.seed + 1)
        spec = SynthSpec(dataclasses.replace(spec.scene, seed=args.seed), oracle)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    gt, guide = generate_scene(spec.scene)
    write_raster(gt, out / "gt.fdr1")
    write_raster(guide, out / "guide.fdr1")
    if spec.oracle is not None:
        write_raster(oracle_relative(gt, spec.oracle), out / "relative.fdr1")
    _write_json(out / "manifest.json", dataclasses.asdict(spec))
    print(f"wrote scene '{spec.scene.layout}' ({spec.scene.width}x{spec.scene.height}) to {out}")
    return 0


def cmd_simulate(args) -> int:
    spec = read_config(PatternSpec, args.pattern)
    gt = read_raster(args.gt)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    intrinsics = None
    if args.intrinsics:
        fx, fy, cx, cy = _parse_floats(args.intrinsics, 4, "--intrinsics")
        intrinsics = CameraIntrinsics(fx, fy, cx, cy)
    guide = read_raster(args.guide) if args.guide else None
    pts = sample_pattern(gt, spec, intrinsics=intrinsics, guide=guide)
    write_points(pts, args.out)
    print(f"wrote {len(pts)} '{spec.kind}' points to {args.out}")
    return 0


def cmd_align(args) -> int:
    z = read_raster(args.relative)
    pts = read_points(args.points)
    pts.check_bounds(z)
    if args.laser:
        (_, _, baseline, u1, u2), K = _laser_camera(args.laser, 5, z, pts)
        us = sorted(p.u for p in pts)
        if us != sorted([int(u1), int(u2)]):
            raise ConfigError(f"--laser columns {sorted([int(u1), int(u2)])} do not match points {us}")
        aligned, fit = align_with_laser(z, pts, K, baseline)
    else:
        aligned, fit = align_global(z, pts)
    write_raster(aligned, args.out)
    if args.fit_report:
        _write_json(args.fit_report, dataclasses.asdict(fit))
    print(f"aligned with mode={fit.mode} s={fit.s:.6g} t={fit.t:.6g} rms={fit.residual_rms:.3g}")
    return 0


def cmd_densify(args) -> int:
    eps = raster_to_scale_map(read_raster(args.scale_map))
    guide = read_raster(args.guide)
    params = JBUParams(
        window_radius=args.radius, sigma_spatial=args.sigma_s, sigma_range=args.sigma_r
    )
    dense = fill_default(jbu_densify(eps, guide, params))
    # densified rasters carry the coverage mask, not the measured-point mask
    write_raster(DepthRaster(dense.values, dense.filled, Space.AFFINE), args.out)
    print(
        f"densified {int(eps.known.sum())} known factors to "
        f"{int(dense.filled.sum())}/{dense.values.size} covered pixels"
    )
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    model, train_log = train(cfg, out_dir=args.out_dir)
    final = train_log["history"][-1]
    print(
        f"trained {cfg.epochs} epochs ({model.param_count()} params): "
        f"train {final['train_loss']:.4f} val {final['val_loss']:.4f}"
    )
    return 0


def cmd_run(args) -> int:
    if args.checkpoint and (args.config or args.seed is not None):
        raise ConfigError("a checkpoint carries its config and seed: --checkpoint takes no --config or --seed")
    if args.cap is not None:
        if not args.gt:
            raise ConfigError("--cap caps the metrics against --gt: it needs --gt")
        _check_cap(args.cap)
    model = SpadeModel.load(args.checkpoint) if args.checkpoint else SpadeModel(_load_config(args))
    z = read_raster(args.relative)
    guide = read_raster(args.guide)
    pts = read_points(args.points)
    gt = read_raster(args.gt) if args.gt else None
    laser = None
    if args.laser:
        (_, _, baseline), K = _laser_camera(args.laser, 3, z, pts)
        laser = LaserRig(K, baseline_m=baseline)
    result = run_frame(model, z, guide, pts, gt=gt, laser=laser, cap_m=args.cap)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_raster(result.depth, out / "depth.fdr1")
    write_raster(result.aligned, out / "aligned.fdr1")
    _write_json(out / "fit.json", dataclasses.asdict(result.fit))
    if result.metrics is not None:
        _write_json(out / "metrics.json", dataclasses.asdict(result.metrics))
        print(f"frame MAE {result.metrics.mae:.4f} m (mode={result.fit.mode})")
    else:
        print(f"frame complete (mode={result.fit.mode})")
    return 0


def _match_rasters(pred_path, gt_path):
    pred_p, gt_p = Path(pred_path), Path(gt_path)
    if pred_p.is_dir() != gt_p.is_dir():
        raise ConfigError("--pred and --gt must both be files or both be directories")
    if not pred_p.is_dir():
        return [(pred_p.stem, pred_p, gt_p)]
    pairs = []
    for pf in sorted(pred_p.glob("*.fdr1")):
        gf = gt_p / pf.name
        if gf.exists():
            pairs.append((pf.stem, pf, gf))
    if not pairs:
        raise ConfigError(f"no matching raster names between {pred_p} and {gt_p}")
    return pairs


def cmd_eval(args) -> int:
    _check_cap(args.cap)
    pairs = _match_rasters(args.pred, args.gt)
    reports, per_frame, skipped = [], [], []
    for name, pf, gf in pairs:
        try:
            rep = compute_metrics(read_raster(pf), read_raster(gf), cap_m=args.cap)
            reports.append(rep)
            per_frame.append({"frame": name, **dataclasses.asdict(rep)})
        except SpadeError as e:
            skipped.append({"frame": name, "reason": str(e)})
    report = {
        "range_cap_m": args.cap,
        "frames": per_frame,
        "skipped": skipped,
        "aggregate": dataclasses.asdict(aggregate_metrics(reports)) if reports else None,
    }
    if args.points:
        depths, counts = [], []
        pp = Path(args.points)
        files = sorted(pp.glob("*.csv")) if pp.is_dir() else [pp]
        for f in files:
            pts = read_points(f)
            counts.append(len(pts))
            depths.extend(p.depth_m for p in pts)
        if depths:
            report["prior_depth_stats"] = {
                "mean_depth_m": float(np.mean(depths)),
                "median_depth_m": float(np.median(depths)),
                "max_depth_m": float(np.max(depths)),
                "min_depth_m": float(np.min(depths)),
                "mean_point_count": float(np.mean(counts)),
            }
    _write_json(args.out, report)
    agg = report["aggregate"]
    if agg:
        print(f"evaluated {len(per_frame)} frames (cap {args.cap} m): MAE {agg['mae']:.4f} m")
    else:
        print("no frames evaluated")
    return 0


def cmd_sweep(args) -> int:
    spec = read_config(SweepSpec, args.sweep) if args.sweep else SweepSpec()
    model = SpadeModel.load(args.checkpoint)
    report = sweep(model, model.cfg, spec)
    report["config_hash"] = config_hash(model.cfg)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "sweep.json", report)
    (out / "sweep.csv").write_text(sweep_table_csv(report), encoding="utf-8")
    (out / "sweep.md").write_text(sweep_table_markdown(report), encoding="utf-8")
    print(f"swept {len(report['cells'])} cells over {report['n_frames']} frames -> {out}")
    return 0


def cmd_gradcheck(args) -> int:
    results = run_suite(seed=args.seed if args.seed is not None else 0)
    for family, worst in results["families"].items():
        status = "pass" if worst <= TOLERANCE else "FAIL"
        print(f"{family:22s} worst relative error {worst:.3e}  [{status}]")
    print(f"suite runtime {results['runtime_s']:.1f}s (tolerance {TOLERANCE:g})")
    if not results["all_pass"]:
        print("gradient suite FAILED", file=sys.stderr)
        return 3
    return 0


def cmd_report(args) -> int:
    pairs = _match_rasters(args.pred, args.gt)
    triples = [(name, read_raster(pf), read_raster(gf)) for name, pf, gf in pairs]
    written = render_report(triples, args.out_dir)
    print(f"wrote {len(written['error_maps'])} error maps and tables to {args.out_dir}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spade",
        description="Two-stage sparse-prior monocular depth: global alignment plus scale refinement.",
    )
    parser.add_argument("--version", action="version", version=f"spade {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "--config": dict(help="RunConfig JSON file"),
        "--seed": dict(type=int, default=None, help="seed override"),
        "--out-dir": dict(default="out", help="output directory"),
    }

    def command(name, fn, summary, *flags):
        """A subcommand with those of the shared flags it reads."""
        p = sub.add_parser(name, help=summary)
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        p.set_defaults(fn=fn)
        return p

    p = command("synth", cmd_synth, "generate a synthetic scene (+ optional oracle raster)", "--seed", "--out-dir")
    p.add_argument("--spec", required=True, help="scene (and optional oracle) spec JSON")

    p = command("simulate", cmd_simulate, "sample sparse points from dense ground truth", "--seed")
    p.add_argument("--gt", required=True)
    p.add_argument("--pattern", required=True, help="pattern spec JSON")
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument("--intrinsics", help="fx,fy,cx,cy (laser2 pattern)")
    p.add_argument("--guide", help="guide raster for feature_like sampling")

    p = command("align", cmd_align, "stage-1 global alignment")
    p.add_argument("--relative", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--laser", help="fx,cx,B,u1,u2 for the two-point laser path")
    p.add_argument("--out", required=True)
    p.add_argument("--fit-report", help="JSON fit report path")

    p = command("densify", cmd_densify, "JBU densification of a sparse scale map")
    p.add_argument("--scale-map", required=True)
    p.add_argument("--guide", required=True, help="aligned inverse-depth raster")
    p.add_argument("--radius", type=int, default=JBUParams().window_radius)
    p.add_argument("--sigma-s", type=float, default=JBUParams().sigma_spatial)
    p.add_argument("--sigma-r", type=float, default=JBUParams().sigma_range)
    p.add_argument("--out", required=True)

    command("train", cmd_train, "train the refinement network on synthetic scenes", "--config", "--seed", "--out-dir")

    p = command("run", cmd_run, "full two-stage inference on one frame", "--config", "--seed", "--out-dir")
    p.add_argument("--checkpoint", help="SPW1 checkpoint, which carries its config and seed (neutral model if omitted)")
    p.add_argument("--relative", required=True)
    p.add_argument("--guide", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--gt")
    p.add_argument("--laser", help="fx,cx,B for the two-point laser path")
    p.add_argument("--cap", type=float, default=None, help="metric range cap (with --gt)")

    p = command("eval", cmd_eval, "metrics for prediction/ground-truth rasters")
    p.add_argument("--pred", required=True, help="raster file or directory")
    p.add_argument("--gt", required=True, help="raster file or directory")
    p.add_argument("--cap", type=float, default=10.0)
    p.add_argument("--points", help="points CSV or directory (prior depth statistics)")
    p.add_argument("--out", required=True, help="JSON report path")

    p = command("sweep", cmd_sweep, "sparsity/pattern/range sweep with GA baseline", "--out-dir")
    p.add_argument("--checkpoint", required=True, help="SPW1 checkpoint; the sweep uses its config and seed")
    p.add_argument("--sweep", help="SweepSpec JSON")

    command("gradcheck", cmd_gradcheck, "finite-difference gradient suite", "--seed")

    p = command("report", cmd_report, "error maps and metric tables", "--out-dir")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        seed = getattr(args, "seed", None)
        if seed is not None and seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {seed}")
        return args.fn(args)
    except SpadeError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 4
