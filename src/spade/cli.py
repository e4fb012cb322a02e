"""Command-line interface.

Subcommands: synth, simulate, align, densify, train, run, eval, sweep,
gradcheck, report. Each accepts only the flags it reads; any other flag is
a usage error. A checkpoint carries its config and seed, so `run
--checkpoint` refuses --config and --seed and `sweep` has neither.
`simulate`, `align` and `run` take one laser rig, `--laser fx,cx,B`. Exit
codes: 0 ok, 2 config or usage error (and running out of memory, which a
config asking for too large an input can cause), 3 numeric failure, 4 I/O
or format error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    DepthRaster,
    LaserRig,
    Space,
    raster_to_scale_map,
    read_points,
    read_raster,
    write_points,
    write_raster,
)
from .config import read_config
from .densify import JBUParams, fill_default, jbu_densify
from .errors import ConfigError, InsufficientPointsError, SpadeError
from .gradsuite import TOLERANCE, run_suite
from .metrics import aggregate_metrics, score_pairs
from .pipeline import (
    RunConfig,
    SpadeModel,
    SweepSpec,
    align_frame,
    check_frame,
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


def _laser_rig(args, raster, pts=None) -> LaserRig | None:
    """The rig of --laser fx,cx,B, or None without the flag. Its principal
    column cx lies on the command's `raster`. A laser frame (`pts`, for align
    and run) has exactly 2 points, and the laser columns are theirs."""
    if not args.laser:
        return None
    parts = args.laser.split(",")
    if len(parts) != 3:
        raise ConfigError(f"--laser expects 3 comma-separated values, got {args.laser!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"--laser: could not parse {args.laser!r}")
    if not all(np.isfinite(values)):
        raise ConfigError(f"--laser values must be finite, got {args.laser!r}")
    rig = LaserRig(*values)
    w = raster.shape[1]
    if not 0 <= rig.cx < w:
        raise ConfigError(f"laser principal column cx={rig.cx:g} lies outside the raster's width {w}")
    if pts is not None and len(pts) != 2:
        raise ConfigError(f"laser alignment expects exactly 2 points, file has {len(pts)}")
    return rig


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
    if args.laser and spec.kind != "laser2":
        raise ConfigError(f"--laser is read only by the laser2 pattern, not by {spec.kind}")
    gt = read_raster(args.gt)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    guide = read_raster(args.guide) if args.guide else None
    pts = sample_pattern(gt, spec, laser=_laser_rig(args, gt), guide=guide)
    write_points(pts, args.out)
    print(f"wrote {len(pts)} '{spec.kind}' points to {args.out}")
    return 0


def cmd_align(args) -> int:
    z = read_raster(args.relative)
    pts = read_points(args.points)
    pts.check_bounds(z)
    aligned, fit = align_frame(z, pts, _laser_rig(args, z, pts))
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
    dense = jbu_densify(eps, guide, params)  # checks the guide's shape and space first
    if not (eps.known & guide.valid).any():
        raise InsufficientPointsError(
            f"no known factor lies on a valid guide pixel "
            f"({int(eps.known.sum())} known factors, {int(guide.valid.sum())} valid guide pixels)"
        )
    dense = fill_default(dense)
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
    model = SpadeModel.load(args.checkpoint) if args.checkpoint else None
    cfg = _load_config(args) if model is None else model.cfg
    z = read_raster(args.relative)
    guide = read_raster(args.guide)
    check_frame(z, guide, cfg)  # before a model is built for a size the frame does not have
    pts = read_points(args.points)
    rig = _laser_rig(args, z, pts)
    if model is None:
        model = SpadeModel(cfg)
    gt = read_raster(args.gt) if args.gt else None
    result = run_frame(model, z, guide, pts, gt=gt, laser=rig, cap_m=args.cap)
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
    pairs = [(pf.stem, pf, gt_p / pf.name) for pf in sorted(pred_p.glob("*.fdr1"))]
    unmatched = [pf.name for _, pf, gf in pairs if not gf.exists()]
    if unmatched:
        more = f" and {len(unmatched) - 5} more" if len(unmatched) > 5 else ""
        raise ConfigError(f"no --gt raster for {len(unmatched)} --pred raster(s): {', '.join(unmatched[:5])}{more}")
    if not pairs:
        raise ConfigError(f"no .fdr1 raster in {pred_p}")
    return pairs


def cmd_eval(args) -> int:
    _check_cap(args.cap)
    pairs = ((name, read_raster(pf), read_raster(gf)) for name, pf, gf in _match_rasters(args.pred, args.gt))
    scored, skipped = score_pairs(pairs, args.cap)
    report = {
        "range_cap_m": args.cap,
        "frames": [{"frame": name, **dataclasses.asdict(rep)} for name, rep in scored],
        "skipped": [{"frame": name, "reason": reason} for name, reason in skipped],
        "aggregate": dataclasses.asdict(aggregate_metrics([rep for _, rep in scored])) if scored else None,
    }
    _write_json(args.out, report)
    agg = report["aggregate"]
    if agg:
        print(f"evaluated {len(scored)} frames (cap {args.cap} m): MAE {agg['mae']:.4f} m")
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
        "--laser": dict(help="fx,cx,B: laser rig (focal length, principal column in px; baseline in m)"),
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

    p = command("simulate", cmd_simulate, "sample sparse points from dense ground truth", "--seed", "--laser")
    p.add_argument("--gt", required=True)
    p.add_argument("--pattern", required=True, help="pattern spec JSON")
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument("--guide", help="guide raster for feature_like sampling")

    p = command("align", cmd_align, "stage-1 global alignment", "--laser")
    p.add_argument("--relative", required=True)
    p.add_argument("--points", required=True)
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

    p = command("run", cmd_run, "full two-stage inference on one frame", "--config", "--seed", "--out-dir", "--laser")
    p.add_argument("--checkpoint", help="SPW1 checkpoint, which carries its config and seed (neutral model if omitted)")
    p.add_argument("--relative", required=True)
    p.add_argument("--guide", required=True, help="unitless guide image")
    p.add_argument("--points", required=True)
    p.add_argument("--gt")
    p.add_argument("--cap", type=float, default=None, help="metric range cap (with --gt)")

    p = command("eval", cmd_eval, "metrics for prediction/ground-truth rasters")
    p.add_argument("--pred", required=True, help="raster file or directory")
    p.add_argument("--gt", required=True, help="raster file or directory")
    p.add_argument("--cap", type=float, default=10.0)
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
    except MemoryError as e:
        print(f"error: out of memory: {e or 'an allocation failed'}", file=sys.stderr)
        return 2
